import contextlib
import copy
import functools
import io
import json
import math
import multiprocessing
import os
import pickle
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from conftest import TINY_OVERRIDE
from spectral_tta import archive, bench, cli, errors, network, ridge, twocore
from spectral_tta.adapt import AdaptConfig
from spectral_tta.bench import (
    CORRUPTION_KINDS,
    SEVERITY_GRIDS,
    CorruptionSpec,
    DatasetSpec,
    corrupt,
    gen_dataset,
    load_config,
    make_batches,
    run_benchmark,
)
from spectral_tta.errors import (
    ConfigError,
    ContractViolationError,
    EmptyBasisError,
    HelperProcessError,
    NumericalFailureError,
    RankDeficientError,
)
from spectral_tta.filters import RELU_RIDGE, SpectralFilter
from spectral_tta.network import BatchNorm2d, build_model, insert_adapter, load_model, save_model
from spectral_tta.pca import PcaBasis

SMALL = DatasetSpec(n_train=60, n_test=40, channels=2, height=4, width=4, seed=3)


# ---- dataset ------------------------------------------------------------


def test_dataset_deterministic():
    (ax, ay), (tx, ty) = gen_dataset(SMALL)
    gen_dataset.cache_clear()  # a fresh draw, not the memoised arrays
    (bx, by), (ux, uy) = gen_dataset(SMALL)
    assert np.array_equal(ax, bx) and np.array_equal(ay, by)
    assert np.array_equal(tx, ux) and np.array_equal(ty, uy)


def test_dataset_shapes_range_and_balance():
    (train_x, train_y), (test_x, test_y) = gen_dataset(SMALL)
    assert train_x.shape == (60, 2, 4, 4)
    assert test_x.shape == (40, 2, 4, 4)
    assert train_x.min() >= 0.0 and train_x.max() <= 1.0
    for y, n in [(train_y, 60), (test_y, 40)]:
        counts = np.bincount(y, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_dataset_seed_matters():
    (ax, _), _ = gen_dataset(SMALL)
    (bx, _), _ = gen_dataset(DatasetSpec(**{**SMALL.__dict__, "seed": 4}))
    assert not np.array_equal(ax, bx)


def test_dataset_classes_differ_in_expectation():
    spec = DatasetSpec(n_train=400, n_test=40, channels=2, height=4, width=4)
    (x, y), _ = gen_dataset(spec)
    means = np.stack([x[y == k].mean(axis=0) for k in range(4)])
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.abs(means[a] - means[b]).max() > 0.02


def test_dataset_infeasible_class_count():
    with pytest.raises(ContractViolationError):
        gen_dataset(DatasetSpec(n_train=10, n_test=10, n_classes=9))
    with pytest.raises(ContractViolationError):
        DatasetSpec(n_train=0, n_test=10)
    with pytest.raises(ContractViolationError):
        DatasetSpec(generator="photos")
    with pytest.raises(ContractViolationError):
        DatasetSpec(generator="gaussian-textures")


def count_draws(monkeypatch):
    """Empty the dataset memo and list the sample count of each
    ``bench._sample`` call from now on: a generated dataset draws its train
    set, then its test set."""
    draws = []
    sample = bench._sample

    def counted(templates, labels, rng):
        draws.append(len(labels))
        return sample(templates, labels, rng)

    monkeypatch.setattr(bench, "_sample", counted)
    gen_dataset.cache_clear()
    return draws


def test_dataset_is_generated_once_per_equal_spec(monkeypatch):
    draws = count_draws(monkeypatch)
    first = gen_dataset(SMALL)
    again = gen_dataset(DatasetSpec(**SMALL.__dict__))  # equal, not the same object
    assert draws == [60, 40]
    assert all(a is b for pair, same in zip(first, again) for a, b in zip(pair, same))


def test_dataset_arrays_are_read_only():
    (train_x, train_y), (test_x, test_y) = gen_dataset(SMALL)
    for arr in (train_x, train_y, test_x, test_y):
        with pytest.raises(ValueError):
            arr[0] = 0
        with pytest.raises(ValueError):
            arr[:2] += 1  # a view is read-only too


def test_dataset_memo_holds_one_spec(monkeypatch):
    draws = count_draws(monkeypatch)
    (ax, _), _ = gen_dataset(SMALL)
    (bx, _), _ = gen_dataset(DatasetSpec(**{**SMALL.__dict__, "seed": 4}))
    assert gen_dataset.cache_info().currsize == 1
    (cx, _), _ = gen_dataset(SMALL)  # the second spec replaced the first
    assert draws == [60, 40] * 3
    assert cx is not ax and np.array_equal(cx, ax)


def test_entry_points_on_one_config_generate_the_dataset_once(tiny_config, monkeypatch):
    cfg = load_config({**tiny_config, "methods": ["no-adapt"], "corruptions": ["blur"], "severities": [5]})
    cfg = bench.with_value(cfg, "model.train_epochs", 1)
    draws = count_draws(monkeypatch)
    model = bench.train_from_config(cfg)
    basis = bench.fit_basis_from_config(cfg, model)
    run_benchmark(cfg, model, basis)
    bench.run_cell(cfg, model, basis, "no-adapt", "blur", 5)
    assert draws == [240, 120]


# ---- corruptions -----------------------------------------------------------


def corrupted_pairwise(kind):
    (x, _), _ = gen_dataset(SMALL)
    return [corrupt(x, CorruptionSpec(kind=kind, severity=s, seed=7)) for s in range(1, 6)]


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_corrupt_pure_and_in_range(kind):
    (x, _), _ = gen_dataset(SMALL)
    before = x.copy()
    out = corrupt(x, CorruptionSpec(kind=kind, severity=3, seed=1))
    assert np.array_equal(x, before)  # input untouched
    assert out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    again = corrupt(x, CorruptionSpec(kind=kind, severity=3, seed=1))
    assert np.array_equal(out, again)  # same seed, same draw


@pytest.mark.parametrize("kind", CORRUPTION_KINDS)
def test_corrupt_displacement_monotone_in_severity(kind):
    (x, _), _ = gen_dataset(SMALL)
    flat = x.reshape(len(x), -1)
    disp = []
    for out in corrupted_pairwise(kind):
        disp.append(float(np.mean(np.linalg.norm(out.reshape(len(x), -1) - flat, axis=1))))
    assert all(a < b for a, b in zip(disp, disp[1:])), disp
    assert disp[0] > 0.0


def test_corrupt_seed_matters_for_stochastic_kinds():
    (x, _), _ = gen_dataset(SMALL)
    a = corrupt(x, CorruptionSpec(kind="gaussian-noise", severity=2, seed=0))
    b = corrupt(x, CorruptionSpec(kind="gaussian-noise", severity=2, seed=1))
    assert not np.array_equal(a, b)
    # deterministic kinds ignore the seed entirely
    a = corrupt(x, CorruptionSpec(kind="contrast", severity=2, seed=0))
    b = corrupt(x, CorruptionSpec(kind="contrast", severity=2, seed=1))
    assert np.array_equal(a, b)


def test_corrupt_contrast_hand_value():
    x = np.full((1, 1, 2, 2), 0.9)
    out = corrupt(x, CorruptionSpec(kind="contrast", severity=5))
    # 0.5 + (0.9 - 0.5) * 0.25
    assert np.allclose(out, 0.6, atol=1e-12)


def test_corrupt_validation():
    with pytest.raises(ContractViolationError):
        CorruptionSpec(kind="fog", severity=1)
    with pytest.raises(ContractViolationError):
        CorruptionSpec(kind="blur", severity=0)
    with pytest.raises(ContractViolationError):
        CorruptionSpec(kind="blur", severity=6)
    # a severity indexes the kind's grid: a float equal to a level, or a
    # bool, is not one, and an integer of numpy's is
    for severity, text in [(3.0, "3.0"), (np.float64(3.0), "3.0"), (True, "True")]:
        with pytest.raises(ContractViolationError, match=f"got .*{text}"):
            CorruptionSpec(kind="blur", severity=severity)
    assert CorruptionSpec(kind="blur", severity=np.int64(3)).severity == 3


# ---- the image filter: scipy's gaussian_filter, bit for bit ---------------


def scipy_gaussian_filter(x, sigma, mode="nearest"):
    """The reference: scipy's filter with ``sigma`` on the last two axes."""
    return ndimage.gaussian_filter(x, sigma=(0,) * (x.ndim - 2) + (sigma, sigma), mode=mode)


# the five blur levels; the 4x4 maps are the CI tiny config's, where the
# radius of 5 at sigma 1.3 exceeds the axis, as it does on the 1-row map for
# every sigma; 1100 planes of 8x8 go through in three blocks of 512, the last
# one partial
@pytest.mark.parametrize(
    "shape", [(5, 3, 8, 8), (6, 2, 4, 4), (3, 1, 7), (550, 2, 8, 8)],
    ids=["8x8", "4x4", "1x7", "8x8-in-blocks"],
)
@pytest.mark.parametrize("sigma", SEVERITY_GRIDS["blur"])
@pytest.mark.parametrize("mode", ["nearest"])  # scipy's boundary mode that the filter repeats
def test_gaussian_filter_bitwise_equals_scipy(mode, sigma, shape):
    x = np.random.default_rng(17).normal(size=shape)
    out = bench._gaussian_filter(x, sigma)
    assert out.tobytes() == scipy_gaussian_filter(x, sigma, mode).tobytes()


def with_scipy_filter(monkeypatch, run):
    """``run()`` with ``bench._gaussian_filter``, then with scipy's filter
    patched in."""
    ours = run()
    with monkeypatch.context() as patched:
        patched.setattr(bench, "_gaussian_filter", scipy_gaussian_filter)
        theirs = run()
    return ours, theirs


# the default 3x8x8 maps and SMALL's 2x4x4
both_map_sizes = pytest.mark.parametrize(
    "spec", [DatasetSpec(n_train=60, n_test=40, seed=2), SMALL], ids=["8x8", "4x4"]
)


@pytest.mark.parametrize("severity", range(1, 6))
@both_map_sizes
def test_blur_corruption_matches_scipy(spec, severity, monkeypatch):
    (x, _), _ = gen_dataset(spec)
    blur = CorruptionSpec(kind="blur", severity=severity)
    ours, theirs = with_scipy_filter(monkeypatch, lambda: corrupt(x, blur))
    assert ours.tobytes() == theirs.tobytes()


PACKAGE_DIR = Path(bench.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", [*MODULES, ""], ids=[*MODULES, "package"])
def test_a_module_imports_on_its_own_and_loads_no_scipy(module):
    """Each module imports first in a fresh interpreter, warnings as errors,
    and loads no scipy; the package alone loads none of its modules and no
    numpy."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    if module:
        name, unwanted = f"spectral_tta.{module}", "m.split('.')[0] == 'scipy'"
    else:
        name = "spectral_tta"
        unwanted = "m.split('.')[0] in ('numpy', 'scipy') or m.startswith('spectral_tta.')"
    code = f"import sys, {name}; print([m for m in sys.modules if {unwanted}])"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ---- config --------------------------------------------------------------


def test_config_defaults_and_override():
    cfg = load_config()
    assert cfg["pca"]["rank"] == 64
    cfg = load_config({"pca": {"rank": 16}, "seed": 5})
    assert cfg["pca"]["rank"] == 16
    assert cfg["seed"] == 5
    assert cfg["pca"]["fit_samples"] == 512  # untouched sibling keys survive
    assert bench._adapt_config(cfg) == AdaptConfig()  # one set of adapt defaults


def test_config_unknown_keys_listed():
    with pytest.raises(ConfigError) as exc:
        load_config({"pca": {"rnak": 16}, "sede": 1})
    assert "pca.rnak" in str(exc.value)
    assert "sede" in str(exc.value)
    assert sorted(exc.value.keys) == ["pca.rnak", "sede"]


def test_config_invalid_values():
    with pytest.raises(ConfigError):
        load_config({"methods": ["no-adapt", "magic"]})
    with pytest.raises(ConfigError):
        load_config({"severities": [0]})
    with pytest.raises(ConfigError):
        load_config({"pca": 3})
    cases = [
        ({"methods": []}, "methods:[]"),
        ({"corruptions": []}, "corruptions:[]"),
        ({"severities": []}, "severities:[]"),
        ({"model": {"kernel": 2}}, "model.kernel:2"),
        ({"model": {"conv_channels": []}}, "model.conv_channels:[]"),
        ({"model": {"conv_channels": [8, 0]}}, "model.conv_channels:[8, 0]"),
        ({"model": {"insert_index": -1}}, "model.insert_index:-1"),
        ({"model": {"insert_index": 7}}, "model.insert_index:7"),
        ({"model": {"conv_channels": [8], "insert_index": 4}}, "model.insert_index:4"),
        ({"dataset": {"n_classes": 1}}, "dataset.n_classes:1"),
    ]
    for override, key in cases:
        with pytest.raises(ConfigError) as info:
            load_config(override)
        assert info.value.keys == [key]
    # the bounds themselves are valid; position 0 is the raw input
    assert load_config({"model": {"insert_index": 0}})["model"]["insert_index"] == 0
    assert load_config({"model": {"insert_index": 1}})["model"]["insert_index"] == 1
    assert load_config({"model": {"insert_index": 6}})["model"]["insert_index"] == 6
    assert load_config({"dataset": {"n_classes": 2}})["dataset"]["n_classes"] == 2
    with pytest.raises(ContractViolationError, match="adapt.adam_beta1"):
        load_config({"adapt": {"adam_beta1": 1.0}})  # AdaptConfig's own checks


# one input channel on 6x1 maps, as in CI's narrow config
NARROW_OVERRIDE = {
    "dataset": {"n_train": 240, "n_test": 120, "channels": 1, "height": 6, "width": 1},
    "model": {"conv_channels": [3, 3], "train_epochs": 4},
    "pca": {"rank": 12, "fit_samples": 128},
    "adapt": {"batch_size": 40, "steps_per_batch": 2},
}


def _at(override, insert_index, rank):
    """``override`` with the adapter at ``insert_index`` and ``pca.rank``."""
    return {
        **override,
        "model": {**override.get("model", {}), "insert_index": insert_index},
        "pca": {**override.get("pca", {}), "rank": rank},
    }


@pytest.mark.parametrize(
    "override", [{}, TINY_OVERRIDE, NARROW_OVERRIDE], ids=["default", "tiny", "narrow"]
)
def test_config_and_insert_adapter_accept_the_same_positions(override):
    """The config accepts model.insert_index = j exactly where insert_adapter
    takes position j of the built stack, and there caps pca.rank at the
    least of fit_samples, n_train and the position's flattened width."""
    cfg = load_config(override)
    model = build_model(cfg["seed"], **bench._model_args(cfg))
    shapes = [model.input_shape, *model.layer_output_shapes()]
    accepted = []
    for j in range(-1, len(model.layers) + 2):
        width = math.prod(shapes[j]) if 0 <= j < len(shapes) else 1
        basis = PcaBasis(np.zeros(width), np.eye(1, width), np.ones(1), n_fitted=2)
        try:
            insert_adapter(model, j, basis, SpectralFilter(RELU_RIDGE, np.ones(1)))
        except ContractViolationError:
            with pytest.raises(ConfigError) as info:
                load_config(_at(override, j, 1))
            assert info.value.keys == [f"model.insert_index:{j}"]
            continue
        accepted.append(j)
        largest = min(cfg["pca"]["fit_samples"], cfg["dataset"]["n_train"], width)
        assert load_config(_at(override, j, largest))["pca"]["rank"] == largest
        with pytest.raises(ConfigError) as info:
            load_config(_at(override, j, largest + 1))
        assert info.value.keys == [f"pca.rank:{largest + 1}"]
    assert accepted == list(range(len(model.layers) - 1))  # each map, the raw input's too


def test_load_config_builds_no_model(monkeypatch):
    """The config reads its positions and widths off stack_shapes, so it
    builds no model and allocates no weights, even for 10**12 channels."""

    def refuse(*args, **kwargs):
        raise AssertionError("load_config built a layer")

    monkeypatch.setattr(network, "build_model", refuse)
    monkeypatch.setattr(bench, "build_model", refuse)
    monkeypatch.setattr(network.Conv2d, "__init__", refuse)
    monkeypatch.setattr(network.Linear, "__init__", refuse)
    for override in ({}, TINY_OVERRIDE, NARROW_OVERRIDE, {"model": {"conv_channels": [10**12]}}):
        load_config(override)


def test_make_batches_tail():
    x = np.zeros((10, 1)); y = np.zeros(10, dtype=int)
    batches = make_batches(x, y, 4)
    assert [len(b[1]) for b in batches] == [4, 4, 2]


# ---- benchmark grid ----------------------------------------------------------


def one_cell_config(tiny_config, **adapt_over):
    cfg = copy.deepcopy(tiny_config)
    cfg["corruptions"] = ["gaussian-noise"]
    cfg["severities"] = [3]
    cfg["adapt"].update(adapt_over)
    return cfg


def test_gamma_init_zero_makes_adaptation_inert(tiny_config, tiny_model, tiny_basis, tiny_test_set):
    # gamma = 0 is a stationary point of both filter forms, so the
    # adaptation loop must reduce exactly to plain inference through the
    # adapter-inserted model (the rank-24 projection itself still acts)
    from spectral_tta.adapt import baseline_no_adapt

    cfg = one_cell_config(tiny_config, gamma_init=0.0)
    cfg["methods"] = ["spectral-relu", "spectral-exp"]
    table, records = run_benchmark(cfg, tiny_model, tiny_basis)
    x, y = tiny_test_set
    cx = bench.corrupt(
        x,
        bench.CorruptionSpec(
            kind="gaussian-noise",
            severity=3,
            seed=bench._cell_seed(cfg["seed"], "gaussian-noise", 3),
        ),
    )
    batches = make_batches(cx, y, cfg["adapt"]["batch_size"])
    for method in cfg["methods"]:
        inserted = bench._spectral_model(tiny_model.clone(), cfg, tiny_basis, method)
        plain = baseline_no_adapt(inserted, batches)
        rec = records[f"{method}__gaussian-noise__sev3"]
        assert [b["error"] for b in rec.batches] == [b["error"] for b in plain.batches]
        assert table.errors[(method, "gaussian-noise", 3)] == plain.mean_error()


def test_benchmark_grid_complete_and_clean_accuracy(tiny_config, tiny_model, tiny_basis, tiny_test_set):
    cfg = copy.deepcopy(tiny_config)
    cfg["corruptions"] = ["gaussian-noise", "contrast"]
    cfg["severities"] = [1, 5]
    table, records = run_benchmark(cfg, tiny_model, tiny_basis)
    assert set(table.errors) == {
        (m, c, s) for m in cfg["methods"] for c in cfg["corruptions"] for s in [1, 5]
    }
    assert len(records) == len(table.errors)
    for v in table.errors.values():
        assert 0.0 <= v <= 1.0
    # the frozen model is competent on clean data
    x, y = tiny_test_set
    logits, _ = tiny_model.forward(x)
    assert float(np.mean(logits.argmax(1) == y)) >= 0.9


def test_benchmark_rerun_outputs_byte_identical(tiny_config, tiny_model, tiny_basis, tmp_path):
    cfg = one_cell_config(tiny_config)
    cfg["methods"] = ["no-adapt", "bn-stats", "spectral-relu"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_benchmark(cfg, tiny_model, tiny_basis, out_dir=a)
    run_benchmark(cfg, tiny_model, tiny_basis, out_dir=b)
    names = sorted(p.name for p in a.iterdir())
    assert "table.csv" in names
    assert any(n.startswith("records__") and n.endswith(".jsonl") for n in names)
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_benchmark_csv_shape(tiny_config, tiny_model, tiny_basis, tmp_path):
    cfg = one_cell_config(tiny_config)
    cfg["severities"] = [1, 3]
    table, _ = run_benchmark(cfg, tiny_model, tiny_basis, out_dir=tmp_path)
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    # header + (corruptions + ALL summary) per method
    assert len(lines) == 1 + len(cfg["methods"]) * 2
    assert lines[0] == "method,corruption,sev1,sev3,mean"
    # the written floats round-trip exactly
    cell = lines[1].split(",")[2]
    assert float(cell) == table.errors[(cfg["methods"][0], "gaussian-noise", 1)]


def test_spectral_method_requires_basis(tiny_config, tiny_model):
    cfg = one_cell_config(tiny_config)
    cfg["methods"] = ["spectral-relu"]
    with pytest.raises(ContractViolationError):
        run_benchmark(cfg, tiny_model, None)


def test_benchmark_leaves_model_untouched(tiny_config, tiny_model, tiny_basis):
    before = tiny_model.weight_hash()
    layers = list(tiny_model.layers)
    modes = [l.mode for l in layers if isinstance(l, BatchNorm2d)]
    cfg = one_cell_config(tiny_config)
    run_benchmark(cfg, tiny_model, tiny_basis)
    assert tiny_model.weight_hash() == before
    # the spectral methods adapt a new model around the same layer objects
    assert len(tiny_model.layers) == len(layers)
    assert all(now is then for now, then in zip(tiny_model.layers, layers))
    assert [l.mode for l in layers if isinstance(l, BatchNorm2d)] == modes


# ---- ablations ----------------------------------------------------------------


def ablation_config(tiny_config):
    cfg = copy.deepcopy(tiny_config)
    cfg["corruptions"] = ["gaussian-noise"]
    cfg["ablation"]["n_seeds"] = 1
    cfg["model"]["train_epochs"] = 4
    cfg["adapt"]["steps_per_batch"] = 2
    return cfg


def test_ablate_rank_curve(tiny_config):
    cfg = ablation_config(tiny_config)
    curve = bench.ablate_rank(cfg, [2, 8])
    assert [pt["rank"] for pt in curve] == [2, 8]
    for pt in curve:
        assert 0.0 <= pt["mean_error"] <= 1.0
        assert len(pt["per_seed"]) == 1
        assert pt["mean_error"] == pytest.approx(np.mean(pt["per_seed"]))
    with pytest.raises(ContractViolationError):
        bench.ablate_rank(cfg, [])
    with pytest.raises(ContractViolationError):
        bench.ablate_rank(cfg, [0, 4])
    with pytest.raises(ContractViolationError, match=r"strictly increasing, got \[4, 4\]"):
        bench.ablate_rank(cfg, [4, 4])
    # the tiny fit gives at most 48 modes, the width of its 3 x 4 x 4 input map
    for ranks, refused in [([8, 64], 64), ([500], 500)]:
        with pytest.raises(ConfigError, match=f"pca.rank {refused} .* at most 48"):
            bench.ablate_rank(cfg, ranks)


def test_ablation_points_are_cells_of_the_grid(tiny_config):
    """Each point equals the severity-5 mean of run_benchmark's table, with
    a basis fitted at the point's rank and the point's steps per batch."""
    cfg = ablation_config(tiny_config)
    method = cfg["ablation"]["method"]
    model = bench.train_from_config(cfg)
    for ablate, key, protocol, values in [
        (bench.ablate_rank, "rank", "episodic", [2, 8]),
        (bench.ablate_steps, "steps", "online", [1, 3]),
    ]:
        curve = ablate(cfg, values)
        for point, value in zip(curve, values):
            grid_cfg = copy.deepcopy(cfg)
            grid_cfg["adapt"]["protocol"] = protocol
            if key == "rank":
                grid_cfg["pca"]["rank"] = value
            else:
                grid_cfg["adapt"]["steps_per_batch"] = value
            basis = bench.fit_basis_from_config(grid_cfg, model)
            table, _ = run_benchmark(grid_cfg, model, basis)
            assert point[key] == value
            assert point["per_seed"] == [table.severity_mean(method, 5)]


def test_ablate_steps_curve(tiny_config):
    cfg = ablation_config(tiny_config)
    curve = bench.ablate_steps(cfg, [1, 3])
    assert [pt["steps"] for pt in curve] == [1, 3]
    for pt in curve:
        assert 0.0 <= pt["mean_error"] <= 1.0
    with pytest.raises(ContractViolationError):
        bench.ablate_steps(cfg, [3, 1])
    with pytest.raises(ContractViolationError):
        bench.ablate_steps(cfg, [1, 1])


# ---- command line -----------------------------------------------------------


# each subcommand with only its required arguments, and the namespace it parses to
PARSED = [
    (["train"], dict(config=None, model="model.npz", fn=cli._cmd_train)),
    (
        ["fit-pca"],
        dict(config=None, model="model.npz", basis="basis.npz", fn=cli._cmd_fit_pca),
    ),
    (
        ["adapt"],
        dict(
            config=None, model="model.npz", basis="basis.npz", method="spectral-relu",
            corruption=None, severity=5, out="records.jsonl", fn=cli._cmd_adapt,
        ),
    ),
    (
        ["bench"],
        dict(config=None, model="model.npz", basis="basis.npz", out="bench_out", fn=cli._cmd_bench),
    ),
    (
        ["ablate-rank", "--ranks", "4"],
        dict(
            config=None, values=[4], out="rank_curve.json", fn=cli._cmd_ablate,
            sweep=bench.ablate_rank, label="rank",
        ),
    ),
    (
        ["ablate-steps", "--steps", "1"],
        dict(
            config=None, values=[1], out="steps_curve.json", fn=cli._cmd_ablate,
            sweep=bench.ablate_steps, label="steps",
        ),
    ),
    (
        ["verify-ridge"],
        dict(trials=50, seed=0, out="ridge_report.json", fn=cli._cmd_verify_ridge),
    ),
]


@pytest.mark.parametrize("argv, namespace", PARSED, ids=[argv[0] for argv, _ in PARSED])
def test_cli_parser_gives_each_subcommand_its_options_and_defaults(argv, namespace):
    """Each subcommand parsed with only its required arguments: every
    option it has, with its default, and no other."""
    args = cli.build_parser().parse_args(argv)
    assert vars(args) == {"command": argv[0], **namespace}


def write_tiny_cli_config(tmp_path):
    cfg = {
        "dataset": {"n_train": 240, "n_test": 120, "channels": 2, "height": 4, "width": 4},
        "model": {"conv_channels": [3, 3], "insert_index": 3},
        "pca": {"rank": 24, "fit_samples": 128},
        "adapt": {"batch_size": 40, "learning_rate": 0.25},
    }
    cfg["model"]["train_epochs"] = 4
    cfg["corruptions"] = ["brightness"]
    cfg["severities"] = [5]
    cfg["methods"] = ["no-adapt", "spectral-relu"]
    cfg["adapt"]["steps_per_batch"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_end_to_end(tmp_path, capsys):
    cfg = write_tiny_cli_config(tmp_path)
    model = tmp_path / "model.npz"
    basis = tmp_path / "basis.npz"
    out = tmp_path / "bench_out"

    assert cli.main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    assert model.exists()
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]) == 0
    assert basis.exists()
    assert (
        cli.main(
            [
                "adapt", "--config", str(cfg), "--model", str(model), "--basis", str(basis),
                "--method", "spectral-relu", "--corruption", "brightness", "--severity", "5",
                "--out", str(tmp_path / "records.jsonl"),
            ]
        )
        == 0
    )
    assert (tmp_path / "records.jsonl").exists()
    assert (
        cli.main(
            ["bench", "--config", str(cfg), "--model", str(model), "--basis", str(basis), "--out", str(out)]
        )
        == 0
    )
    assert (out / "table.csv").exists()
    stdout = capsys.readouterr().out
    assert "spectral-relu" in stdout


def test_cli_verify_ridge(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify-ridge", "--trials", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert "passed" in capsys.readouterr().out


def test_cli_verify_ridge_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["verify-ridge", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_cli_rank_deficient_system_exits_2(tmp_path, capsys, monkeypatch):
    def singular(trials, seed):
        raise RankDeficientError("X'X is singular and gamma == 0")

    monkeypatch.setattr(ridge, "verify_equivalence", singular)
    out = tmp_path / "report.json"
    assert cli.main(["verify-ridge", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: X'X is singular and gamma == 0\n"
    assert not out.exists()


def test_every_package_error_has_an_exit_code():
    """Each exception class of the errors module is one that cli.main maps
    to an exit code, so none ends a command in a traceback."""
    mapped = (ContractViolationError, NumericalFailureError, HelperProcessError)
    found = [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    ]
    assert RankDeficientError in found
    assert [cls for cls in found if not issubclass(cls, mapped)] == []


@pytest.mark.parametrize(
    "command, flag, sweep, label",
    [("ablate-rank", "--ranks", "ablate_rank", "rank"), ("ablate-steps", "--steps", "ablate_steps", "steps")],
)
def test_cli_ablation_writes_the_curve_of_its_sweep(command, flag, sweep, label, tmp_path, capsys, monkeypatch):
    seen = []

    def sweep_stub(cfg, values):
        seen.append(values)
        return [{label: v, "mean_error": 0.5, "per_seed": [0.5]} for v in values]

    monkeypatch.setattr(bench, sweep, sweep_stub)
    out = tmp_path / "curve.json"
    cfg = write_tiny_cli_config(tmp_path)
    assert cli.main([command, "--config", str(cfg), flag, "1", "3", "--out", str(out)]) == 0
    assert seen == [[1, 3]]
    assert json.loads(out.read_text()) == [{label: v, "mean_error": 0.5, "per_seed": [0.5]} for v in (1, 3)]
    assert capsys.readouterr().out == f"wrote {label} ablation curve to {out}\n"


def test_cli_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["train", "--config", str(missing), "--model", str(tmp_path / "m.npz")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"pca": {"rnak": 2}}')
    assert cli.main(["train", "--config", str(bad), "--model", str(tmp_path / "m.npz")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert cli.main(["train", "--config", str(notjson), "--model", str(tmp_path / "m.npz")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000, b"{oops"],
    ids=["not-utf-8", "deep-nesting", "not-json"],
)
def test_cli_unreadable_config_exits_2_naming_the_file(data, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "gen_dataset", lambda spec: pytest.fail("work started"))
    path, model = tmp_path / "config.json", tmp_path / "m.npz"
    path.write_bytes(data)
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} is not valid JSON: ")
    assert not model.exists()


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"seed"', "null"], ids=["list", "number", "string", "null"])
def test_cli_config_whose_top_level_is_not_an_object_exits_2_naming_the_file(
    text, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(bench, "gen_dataset", lambda spec: pytest.fail("work started"))
    path, model = tmp_path / "config.json", tmp_path / "m.npz"
    path.write_text(text)
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err and "JSON object" in err
    assert not model.exists()


_DEEP = "[" * 900 + "0" + "]" * 900


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": %s}' % _DEEP, "seed"),
        (json.dumps({"methods": ["no-adapt"] * 5 + ["magic"] * 2000}), "methods"),
        (json.dumps({"dataset": {"generator": "g" * 5000}}), "dataset.generator"),
        (json.dumps({"adapt": {"protocol": "p" * 5000}}), "adapt.protocol"),
        (json.dumps({"colour" + "x" * 4994: 1}), "colour"),
    ],
    ids=["deep-seed", "long-methods", "long-generator", "long-protocol", "long-unknown-key"],
)
def test_cli_large_refused_value_exits_2_with_one_short_line_naming_the_key(
    text, key, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(bench, "gen_dataset", lambda spec: pytest.fail("work started"))
    path, model = tmp_path / "config.json", tmp_path / "m.npz"
    path.write_text(text)
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert err.count("\n") == 1 and len(err) < 300
    assert not model.exists()


def test_unknown_method_is_refused_as_a_key_and_its_value(tiny_config, tiny_model):
    with pytest.raises(ConfigError) as info:
        bench.run_cell(tiny_config, tiny_model, None, "magic")
    assert info.value.keys == ["methods:'magic'"]
    with pytest.raises(ConfigError) as info:
        bench.run_cell(tiny_config, tiny_model, None, "m" * 5000)
    [key] = info.value.keys
    assert key.startswith("methods:'mmm") and len(key) < 100 and len(str(info.value)) < 100


def test_cli_missing_model_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    args = ["--model", str(missing), "--basis", str(tmp_path / "b.npz")]
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["adapt"] + args + ["--method", "no-adapt"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(missing)) == 2
    assert not (tmp_path / "out").exists()


def test_cli_missing_file_messages_name_the_file(tmp_path, capsys):
    missing_model, missing_basis = tmp_path / "missing.npz", tmp_path / "missing_basis.npz"
    assert cli.main(["fit-pca", "--model", str(missing_model), "--basis", str(missing_basis)]) == 2
    assert not missing_basis.exists()
    model = tmp_path / "m.npz"
    save_model(build_model(0), model)
    args = ["--model", str(model), "--basis", str(missing_basis)]
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["adapt"] + args + ["--out", str(tmp_path / "r.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"checkpoint not found: {missing_model}") == 1
    assert err.count(f"basis file not found: {missing_basis}") == 2
    assert not (tmp_path / "out").exists()


def test_cli_fit_pca_on_a_constant_feature_map_exits_3(tmp_path, capsys):
    model = build_model(0, (2, 4, 4), (3, 3))
    model.layers[0].w[:] = 0.0
    model.layers[0].b[:] = 1.0
    path, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    save_model(model, path)
    cfg = write_tiny_cli_config(tmp_path)
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(path), "--basis", str(basis)]) == 3
    assert not basis.exists()
    assert "numerical failure: the input of position 3 has no variance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"pca": {"rank": 0}}, "invalid config values: pca.rank:0"),
        ({"pca": {"fit_samples": 1}}, "invalid config values: pca.fit_samples:1"),
        ({"dataset": {"n_train": 0}}, "dataset.n_train must be >= 1, got 0"),
        ({"dataset": {"width": -2}}, "dataset.width must be >= 1, got -2"),
        ({"dataset": {"n_classes": 9}}, "dataset.n_classes must be at most 8 with shape-patterns"),
        ({"seed": -1}, "invalid config values: seed:-1"),
        ({"model": {"train_epochs": -1}}, "invalid config values: model.train_epochs:-1"),
        ({"model": {"train_epochs": 0}}, "invalid config values: model.train_epochs:0"),
        ({"model": {"train_lr": float("nan")}}, "invalid config values: model.train_lr:nan"),
        ({"model": {"train_lr": float("inf")}}, "invalid config values: model.train_lr:inf"),
        ({"model": {"train_lr": 0.0}}, "invalid config values: model.train_lr:0.0"),
        ({"adapt": {"gamma_init": -5.0}}, "invalid config values: adapt.gamma_init:-5.0"),
        ({"adapt": {"gamma_init": float("nan")}}, "invalid config values: adapt.gamma_init:nan"),
        ({"ablation": {"method": "nope"}}, "invalid config values: ablation.method:'nope'"),
        ({"ablation": {"method": "no-adapt"}}, "invalid config values: ablation.method:'no-adapt'"),
        (
            {"dataset": {"generator": "gaussian-textures"}},
            "dataset.generator must be 'shape-patterns', got 'gaussian-textures'",
        ),
        ({"corruptions": ["blur", "blur"]}, "invalid config values: corruptions:['blur', 'blur']"),
    ],
)
def test_cli_dataset_and_pca_values_exit_2_before_any_work(
    override, message, tmp_path, capsys, monkeypatch
):
    cfg = json.loads(write_tiny_cli_config(tmp_path).read_text())
    monkeypatch.setattr(bench, "gen_dataset", lambda spec: pytest.fail("work started"))
    for key, value in override.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    model, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    assert not model.exists()
    save_model(build_model(0, (2, 4, 4), (3, 3)), model)
    assert cli.main(["fit-pca", "--config", str(path), "--model", str(model), "--basis", str(basis)]) == 2
    assert not basis.exists()
    out = tmp_path / "out"
    assert cli.main(["bench", "--config", str(path), "--model", str(model), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count(message) == 3


def test_cli_zero_batch_size_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adapt": {"batch_size": 0}}))
    assert cli.main(["bench", "--config", str(cfg), "--model", str(tmp_path / "m.npz")]) == 2
    assert "adapt.batch_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key",
    [
        ("adapt", "batch_size"), ("pca", "fit_batch"), ("model", "train_batch"),
        ("ablation", "n_seeds"), ("model", "kernel"),
    ],
)
@pytest.mark.parametrize("value", [0, -4, 2.0, "8", True, None])
def test_config_rejects_non_positive_int_batch_sizes(section, key, value):
    with pytest.raises(ConfigError) as info:
        load_config({section: {key: value}})
    assert info.value.keys == [f"{section}.{key}:{value!r}"]
    assert load_config({section: {key: 1}})[section][key] == 1


def _overrides(default):
    """Partial configs drawn from a default's own values: any subset of
    keys, and for a list the entries at any non-empty set of its positions,
    in any order."""
    if isinstance(default, dict):
        return st.fixed_dictionaries({}, optional={k: _overrides(v) for k, v in default.items()})
    if isinstance(default, list):
        positions = st.lists(st.sampled_from(range(len(default))), min_size=1, unique=True)
        return positions.map(lambda picked: [default[i] for i in picked])
    return st.just(default)


def _merged(default, override):
    if not isinstance(default, dict):
        return override
    return {k: _merged(v, override[k]) if k in override else v for k, v in default.items()}


@settings(max_examples=80, deadline=None, database=None)
@given(override=_overrides(bench.DEFAULT_CONFIG))
def test_config_accepts_overrides_drawn_from_the_defaults_unchanged(override):
    given_override = copy.deepcopy(override)
    assert load_config(override) == _merged(bench.DEFAULT_CONFIG, given_override)
    assert override == given_override


def test_config_leaf_types_follow_the_defaults():
    cfg = load_config({"adapt": {"learning_rate": 1, "protocol": "online"}, "severities": [2, 5]})
    assert cfg["adapt"]["learning_rate"] == 1  # an int is a valid float
    cases = [
        ({"pca": {"rank": "8"}}, "pca.rank:'8'"),
        ({"pca": {"rank": 8.0}}, "pca.rank:8.0"),
        ({"seed": True}, "seed:True"),  # a bool is not an int
        ({"adapt": {"learning_rate": "0.1"}}, "adapt.learning_rate:'0.1'"),
        ({"adapt": {"adam_eps": False}}, "adapt.adam_eps:False"),
        ({"adapt": {"protocol": 1}}, "adapt.protocol:1"),
        ({"model": {"conv_channels": [8, 8.5]}}, "model.conv_channels:[8, 8.5]"),
        ({"model": {"conv_channels": 8}}, "model.conv_channels:8"),
        ({"methods": ["no-adapt", None]}, "methods:['no-adapt', None]"),
        ({"severities": [5, True]}, "severities:[5, True]"),
    ]
    for override, key in cases:
        with pytest.raises(ConfigError) as info:
            load_config(override)
        assert info.value.keys == [key]
        assert repr(key.split(":")[0]) in str(info.value)


def _leaves(cfg, prefix=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def _out_of_default_draws(default):
    """Negative, zero, huge, NaN, inf, a wrong type and the empty list; for
    a list leaf, each but the last as a one-entry list."""
    entry = default[0] if isinstance(default, list) else default
    values = [-1.0, 0.0, 1e300] if isinstance(entry, float) else [-1, 0, 10**12]
    values += [math.nan, math.inf, "x"]
    if isinstance(default, list):
        values = [[v] for v in values]
    return values + [[]]


def _draws():
    """(leaf, value, config override) for each out-of-default draw of each
    leaf of the default config."""
    for leaf, default in _leaves(bench.DEFAULT_CONFIG):
        section, _, name = leaf.rpartition(".")
        for value in _out_of_default_draws(default):
            yield leaf, value, ({section: {name: value}} if section else {name: value})


def test_config_accepts_or_refuses_every_leaf_value_naming_the_leaf():
    """Every out-of-default value of every leaf either loads or raises a
    ConfigError whose keys name that leaf, whichever rule refuses it."""
    wrong = []
    for leaf, value, override in _draws():
        try:
            load_config(override)
        except ConfigError as exc:
            if exc.keys not in ([leaf], [f"{leaf}:{value!r}"]):
                wrong.append((leaf, value, exc.keys))
        except Exception as exc:
            wrong.append((leaf, value, repr(exc)))
    assert wrong == []


def _loads(override) -> bool:
    try:
        load_config(override)
    except ConfigError:
        return False
    return True


# leaves whose work or memory grows with the value: their accepted 10**12
# would take terabytes or days to run
_GROWS_WITH_VALUE = (
    "dataset.n_train", "dataset.n_test", "dataset.channels", "dataset.height", "dataset.width",
    "model.conv_channels", "model.train_epochs", "adapt.steps_per_batch",
)
_RUNNABLE_DRAWS = [
    (leaf, value, override)
    for leaf, value, override in _draws()
    if _loads(override) and not (leaf in _GROWS_WITH_VALUE and value in (10**12, [10**12]))
]


# a huge learning rate overflows on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "leaf, value",
    [(leaf, value) for leaf, value, _ in _RUNNABLE_DRAWS],
    ids=[f"{leaf}:{value!r}" for leaf, value, _ in _RUNNABLE_DRAWS],
)
def test_cli_runs_each_accepted_draw_to_a_documented_exit(leaf, value, tmp_path):
    """An accepted out-of-default value, over the tiny CLI config, ends
    train, fit-pca and adapt (each method that trains by entropy) in exit
    0, 2 or 3; a step runs only if the one before it exited 0."""
    cfg = json.loads(write_tiny_cli_config(tmp_path).read_text())
    section, _, name = leaf.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[name] = value
    path = tmp_path / "draw.json"
    path.write_text(json.dumps(cfg))
    model, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    common = ["--config", str(path), "--model", str(model)]
    codes = [cli.main(["train", *common])]
    if codes[-1] == 0:
        codes.append(cli.main(["fit-pca", *common, "--basis", str(basis)]))
    if codes[-1] == 0:
        for method in ("spectral-relu", "spectral-exp", "bn-modulators"):
            out = ["--basis", str(basis), "--method", method, "--out", str(tmp_path / "r.jsonl")]
            codes.append(cli.main(["adapt", *common, *out]))
    assert set(codes) <= {0, 2, 3}


@pytest.mark.parametrize(
    "override, key",
    [
        ({"model": {"conv_channels": []}}, "model.conv_channels:[]"),
        ({"model": {"conv_channels": [3, 0]}}, "model.conv_channels:[3, 0]"),
        ({"model": {"insert_index": -1}}, "model.insert_index:-1"),
        ({"model": {"insert_index": 7}}, "model.insert_index:7"),
        ({"dataset": {"n_classes": 1}}, "dataset.n_classes:1"),
    ],
)
def test_cli_model_shape_config_exits_2_before_any_work(override, key, tmp_path, capsys):
    cfg = json.loads(write_tiny_cli_config(tmp_path).read_text())
    for section, values in override.items():
        cfg[section].update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    model, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    assert not model.exists()
    save_model(build_model(0, (2, 4, 4), (3, 3)), model)
    common = ["--config", str(path), "--model", str(model), "--basis", str(basis)]
    assert cli.main(["fit-pca"] + common) == 2
    assert not basis.exists()
    assert cli.main(["bench"] + common + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count(f"invalid config values: {key}") == 3


def test_cli_string_rank_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pca": {"rank": "8"}}))
    model = tmp_path / "m.npz"
    save_model(build_model(0), model)
    basis = tmp_path / "basis.npz"
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]) == 2
    assert not basis.exists()
    err = capsys.readouterr().err
    assert "'pca.rank' must have the type of its default 64, got '8'" in err


def test_cli_fit_pca_fits_the_config_pca_rank(tmp_path, capsys):
    """The rank comes from the config file alone: fit-pca has no option
    that overrides it."""
    cfg = write_tiny_cli_config(tmp_path)
    model, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    save_model(build_model(0, (2, 4, 4), (3, 3)), model)
    fit_pca = ["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]

    def with_rank(rank):
        override = json.loads(cfg.read_text())
        override["pca"]["rank"] = rank
        cfg.write_text(json.dumps(override))

    with pytest.raises(SystemExit) as exc:
        cli.main(fit_pca + ["--rank", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rank 8" in capsys.readouterr().err
    with_rank(0)
    assert cli.main(fit_pca) == 2
    with_rank(49)
    assert cli.main(fit_pca) == 2
    assert not basis.exists()
    err = capsys.readouterr().err
    assert "invalid config values: pca.rank:0" in err
    assert "pca.rank 49 is more than the fit can give: at most 48" in err
    with_rank(8)
    assert cli.main(fit_pca) == 0
    assert PcaBasis.load(basis).rank == 8


@pytest.mark.parametrize(
    "ranks, message",
    [
        (["4", "4"], "rank values must be positive and strictly increasing, got [4, 4]"),
        (["8", "64"], "pca.rank 64 is more than the fit can give: at most 48"),
        (["500"], "pca.rank 500 is more than the fit can give: at most 48"),
    ],
)
def test_cli_ablate_rank_refuses_ranks_before_any_work(ranks, message, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "train_from_config", lambda cfg: pytest.fail("trained"))
    out = tmp_path / "curve.json"
    cfg = write_tiny_cli_config(tmp_path)
    assert cli.main(["ablate-rank", "--config", str(cfg), "--ranks", *ranks, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


# n_fitted values a fitted basis cannot have: it counts at least two samples
# and at least rank of them
_BAD_N_FITTED = {
    "n-fitted-string": "many",
    "n-fitted-negative": -5,
    "n-fitted-zero": 0,
    "n-fitted-float": 1.5,
    "n-fitted-bool": True,
}

# insert_index values no fit records: a basis fitted on a model names the
# adapter position, an integer >= 0, and one fitted on bare rows has null
_BAD_INSERT_INDEX = {
    "insert-index-bool": True,
    "insert-index-float": 1.0,
    "insert-index-negative": -1,
    "insert-index-string": "1",
}


def _corrupt_basis(path, case):
    """Break the basis file at ``path`` as ``case`` says."""
    if case == "directory":  # a directory where the file should be
        path.unlink()
        path.mkdir()
        return
    if case == "format-1-json":  # the first format: JSON text, no archive
        arrays = {"mean": [0.0] * 4, "components": np.eye(4)[:2].ravel().tolist()}
        payload = {"version": 1, "p": 4, "rank": 2, "n_fitted": 10, "singular_values": [2.0, 1.0]}
        path.write_text(json.dumps({**payload, **arrays}))
        return
    with np.load(path) as data:
        arrays = dict(data)
    spec = json.loads(bytes(arrays.pop("spec")).decode())
    if case == "no-n-fitted":
        del spec["n_fitted"]
    elif case == "no-components":
        del arrays["components"]
    elif case == "version-1":
        spec["version"] = 1
    elif case == "string-mean":  # of the right shape
        arrays["mean"] = np.full(4, "0.0")
    elif case == "components":  # stored flat, as format 1 did
        arrays["components"] = arrays["components"].ravel()
    elif case == "mean":
        arrays["mean"] = np.append(arrays["mean"], 0.0)
    elif case == "singular-values":
        arrays["singular_values"] = arrays["singular_values"][:1]
    elif case == "non-finite":
        arrays["components"][0, 3] = np.nan
    elif case == "increasing":
        arrays["singular_values"] = arrays["singular_values"][::-1]
    elif case == "non-positive":
        arrays["singular_values"][-1] = 0.0
    elif case == "non-orthonormal":
        arrays["components"][0, 0] = 1.5  # row 0 is no longer a unit vector
    elif case in _BAD_N_FITTED:
        spec["n_fitted"] = _BAD_N_FITTED[case]
    elif case in _BAD_INSERT_INDEX:
        spec["insert_index"] = _BAD_INSERT_INDEX[case]
    archive.write(path, spec, arrays)


# each case of _corrupt_basis and the cause its refusal names
_BASIS_CAUSES = {
    "components": "components have shape (8,), expected rank x p",
    "mean": "mean has shape (5,)",
    "singular-values": "singular values have shape (1,)",
    "non-finite": "non-finite entries in components",
    "increasing": "singular values must be positive and non-increasing",
    "non-positive": "singular values must be positive and non-increasing",
    "non-orthonormal": "component rows are not orthonormal",
    "format-1-json": "not a basis file (not an npz archive)",
    "directory": "is a directory",
    "no-n-fitted": "no entry 'n_fitted'",
    "no-components": "no entry 'components'",
    "version-1": "unsupported version 1, expected 2",
    "string-mean": "mean has dtype <U3, expected real numbers",
    **{case: "n_fitted must be an integer >= max(2, rank)" for case in _BAD_N_FITTED},
    **{
        case: f"insert_index must be null or an integer >= 0, got {value!r}"
        for case, value in _BAD_INSERT_INDEX.items()
    },
}


@pytest.mark.parametrize("case", list(_BASIS_CAUSES))
def test_cli_invalid_basis_file_exits_2(tmp_path, capsys, case):
    model = tmp_path / "m.npz"
    save_model(build_model(0), model)
    basis = tmp_path / "basis.npz"
    PcaBasis(
        mean=np.zeros(4),
        components=np.eye(4)[:2],
        singular_values=np.array([2.0, 1.0]),
        n_fitted=10,
    ).save(basis)
    _corrupt_basis(basis, case)
    with pytest.raises(ContractViolationError, match="invalid basis file"):
        PcaBasis.load(basis)
    args = ["--model", str(model), "--basis", str(basis)]
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["adapt"] + args + ["--out", str(tmp_path / "r.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"invalid basis file {basis}: {_BASIS_CAUSES[case]}") == 2
    assert "pickle" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["insert-index-bool", "insert-index-float"])
def test_cli_adapt_refuses_a_position_1_basis_whose_insert_index_is_not_an_int(tmp_path, capsys, case):
    """true and 1.0 equal 1, so only the type check tells them from the
    position a basis fitted at 1 records."""
    cfg = json.loads(write_tiny_cli_config(tmp_path).read_text())
    cfg["model"]["insert_index"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    model, basis = tmp_path / "m.npz", tmp_path / "basis.npz"
    save_model(build_model(0, (2, 4, 4), (3, 3)), model)
    common = ["--config", str(path), "--model", str(model), "--basis", str(basis)]
    assert cli.main(["fit-pca"] + common) == 0
    assert cli.main(["adapt"] + common + ["--out", str(tmp_path / "fitted.jsonl")]) == 0
    _corrupt_basis(basis, case)
    out = tmp_path / "r.jsonl"
    assert cli.main(["adapt"] + common + ["--out", str(out)]) == 2
    value = _BAD_INSERT_INDEX[case]
    err = capsys.readouterr().err
    assert f"invalid basis file {basis}: insert_index must be null or an integer >= 0, got {value!r}" in err
    assert not out.exists()


def _respec(arrays, **changes):
    """Change the checkpoint's spec; a key changed to None is deleted."""
    spec = {**json.loads(bytes(arrays["spec"]).decode()), **changes}
    spec = {key: value for key, value in spec.items() if value is not None}
    arrays["spec"] = np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8)


def _corrupt_checkpoint(arrays, case):
    if case == "missing":
        del arrays["layer0.w"]
    elif case == "non-finite":
        arrays["layer1.running_var"] = arrays["layer1.running_var"].copy()
        arrays["layer1.running_var"][0] = np.inf
    elif case == "conv-in-channels":
        arrays["layer3.w"] = arrays["layer3.w"][:, :-1]
    elif case == "bn-channels":
        arrays["layer4.scale"] = arrays["layer4.scale"][:-1]
    elif case == "linear-width":
        arrays["layer7.w"] = arrays["layer7.w"][:, :-2]
    elif case == "negative-variance":
        arrays["layer4.running_var"] = -arrays["layer4.running_var"]
    elif case == "no-kernel":
        _respec(arrays, kernel=None)
    elif case == "no-spec":
        del arrays["spec"]
    elif case == "even-kernel":  # arrays that fit the kernel, which same padding cannot use
        _respec(arrays, kernel=2)
        for key in ("layer0.w", "layer3.w"):
            arrays[key] = arrays[key][:, :, :2, :2]
    elif case == "one-class":
        _respec(arrays, n_classes=1)
        arrays["layer7.w"] = arrays["layer7.w"][:1]
        arrays["layer7.b"] = arrays["layer7.b"][:1]
    elif case == "no-conv-channels":
        _respec(arrays, conv_channels=None)
    elif case == "string-array":  # of the right shape
        arrays["layer0.w"] = np.full(arrays["layer0.w"].shape, "0.1")
    elif case == "complex-array":  # would be cast to its real part
        arrays["layer0.w"] = arrays["layer0.w"] + 1j
    elif case == "version-1":  # the first format's spec: a list of layer kinds
        kinds = ["Conv2d", "BatchNorm2d", "ReLU"] * 2 + ["Flatten", "Linear"]
        layers = [{"kind": k, **({"kernel": 3} if k == "Conv2d" else {})} for k in kinds]
        _respec(arrays, version=1, layers=layers, conv_channels=None, kernel=None, n_classes=None)


@pytest.mark.parametrize(
    "case",
    [
        "missing", "non-finite", "conv-in-channels", "bn-channels", "linear-width",
        "negative-variance", "no-kernel", "no-spec", "not-an-archive", "format-1-basis",
        "even-kernel", "one-class", "no-conv-channels", "version-1", "string-array",
        "complex-array", "compression-99", "compression-12", "directory",
    ],
)
def test_cli_invalid_checkpoint_exits_2(tmp_path, capsys, case):
    model = tmp_path / "m.npz"
    save_model(build_model(0, input_shape=(2, 4, 4), conv_channels=(3, 3), n_classes=3), model)
    with np.load(model) as data:
        arrays = dict(data)
    _corrupt_checkpoint(arrays, case)
    with open(model, "wb") as fh:
        np.savez(fh, **arrays)
    if case == "not-an-archive":
        model.write_bytes(model.read_bytes()[:100])  # a truncated download
    elif case == "format-1-basis":  # a basis file of the first format, JSON text
        _corrupt_basis(model, "format-1-json")
    elif case == "directory":
        model.unlink()
        model.mkdir()
    elif case.startswith("compression-"):
        # the compression method of the first central-directory entry: one
        # the zip layer does not know (99), or bzip2 over stored bytes (12)
        raw = bytearray(model.read_bytes())
        raw[raw.index(b"PK\x01\x02") + 10] = int(case.split("-")[1])
        model.write_bytes(bytes(raw))
    with pytest.raises(ContractViolationError, match="invalid checkpoint"):
        load_model(model)
    cfg = write_tiny_cli_config(tmp_path)
    args = ["--config", str(cfg), "--model", str(model), "--basis", str(tmp_path / "b.npz")]
    records = ["--method", "no-adapt", "--out", str(tmp_path / "r.jsonl")]
    assert cli.main(["adapt"] + args + records) == 2
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["fit-pca"] + args) == 2
    err = capsys.readouterr().err
    assert err.count(f"invalid checkpoint {model}") == 3
    if case == "format-1-basis":
        assert err.count(f"invalid checkpoint {model}: not a checkpoint (not an npz archive)") == 3
    if case == "directory":
        assert err.count(f"invalid checkpoint {model}: is a directory") == 3
        assert "not found" not in err
    assert "pickle" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "b.npz").exists()


@pytest.mark.parametrize(
    "key, value",
    [("dataset.n_classes", 3), ("dataset.channels", 3), ("model.conv_channels", [4, 3])],
)
def test_cli_checkpoint_that_does_not_match_the_config_exits_2(tmp_path, capsys, key, value):
    model = tmp_path / "m.npz"
    # the tiny CLI config's model
    save_model(build_model(0, input_shape=(2, 4, 4), conv_channels=(3, 3), n_classes=4), model)
    path = write_tiny_cli_config(tmp_path)
    cfg = json.loads(path.read_text())
    section, name = key.split(".")
    cfg[section][name] = value
    path.write_text(json.dumps(cfg))
    args = ["--config", str(path), "--model", str(model), "--basis", str(tmp_path / "b.npz")]
    records = ["--method", "no-adapt", "--out", str(tmp_path / "r.jsonl")]
    assert cli.main(["adapt"] + args + records) == 2
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["fit-pca"] + args) == 2
    err = capsys.readouterr().err
    assert err.count(f"checkpoint {model} does not match the config: {key} ") == 3
    assert err.count("in the config") == 3  # only the changed key differs
    assert not any((tmp_path / name).exists() for name in ("r.jsonl", "out", "b.npz"))


def test_saved_checkpoint_loads_unchanged(tmp_path):
    model = build_model(3, input_shape=(2, 4, 4), conv_channels=(3, 3), n_classes=3)
    path = tmp_path / "m.npz"
    save_model(model, path)
    assert load_model(path).weight_hash() == model.weight_hash()


# ---- the cell evaluator ---------------------------------------------------


# at the tiny config's batch size of 40 the 120 test rows make three equal
# batches; at 50 they make 50, 50 and a tail of 20
@pytest.mark.parametrize(
    "method, batch_size",
    [pytest.param(m, 40, id=m) for m in bench.METHODS]
    + [pytest.param(m, 50, id=f"{m}-tail") for m in bench.METHODS],
)
def test_run_cell_returns_the_grid_record(method, batch_size, tiny_config, tiny_model, tiny_basis, monkeypatch):
    """The one-cell grid, split inside its cell between two processes,
    gives the record of one in-process run over the cell. That run forks
    nothing where the grid does: a helper forked before a test's
    monkeypatch would serve the patched run with unpatched code."""
    fork_on_two_cpus(monkeypatch)
    cfg = one_cell_config(tiny_config, batch_size=batch_size)
    cfg["methods"] = [method]
    rec = bench.run_cell(cfg, tiny_model, tiny_basis, method, "gaussian-noise", 3)
    assert multiprocessing.active_children() == []
    _, records = run_benchmark(cfg, tiny_model, tiny_basis)
    grid = records[f"{method}__gaussian-noise__sev3"]
    assert (rec.method, rec.protocol) == (grid.method, grid.protocol)
    assert rec.batches == grid.batches  # errors, both entropies, params_hash
    assert [b["n"] for b in rec.batches] == {40: [40, 40, 40], 50: [50, 50, 20]}[batch_size]


def test_a_cell_or_method_listed_twice_is_refused(tiny_config):
    """A grid list names each entry once: a repeated method, corruption or
    severity is refused, naming each list whole."""
    repeats = {
        "methods": ["no-adapt", "bn-stats", "no-adapt"],
        "corruptions": ["gaussian-noise"] * 2,
        "severities": [3, 3],
    }
    with pytest.raises(ConfigError) as info:
        load_config({**tiny_config, **repeats})
    assert info.value.keys == [
        "methods:['no-adapt', 'bn-stats', 'no-adapt']",
        "corruptions:['gaussian-noise', 'gaussian-noise']",
        "severities:[3, 3]",
    ]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The tiny CLI config and the model and basis files the CLI makes from it."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_tiny_cli_config(tmp)
    model, basis = tmp / "model.npz", tmp / "basis.npz"
    assert cli.main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]) == 0
    return cfg, model, basis


@pytest.mark.parametrize(
    "argv",
    [
        "train --config {cfg} --model {bad}",
        "fit-pca --config {cfg} --model {model} --basis {bad}",
        "bench --config {cfg} --model {model} --basis {basis} --out {bad}",
        "adapt --config {cfg} --model {model} --basis {basis} --out {bad}",
        "ablate-steps --config {cfg} --steps 1 --out {bad}",
        "train --config {bad}",
        "ablate-rank --config {cfg} --ranks 2 --out {bad}",
        "verify-ridge --trials 1 --out {bad}",
        "train --config {cfg} --model {bad}/m.npz",
        "bench --config {cfg} --model {model} --basis {basis} --out {bad}/sub",
    ],
    ids=[
        "train-model", "fit-pca-basis", "bench-out", "adapt-out", "ablate-steps-out", "config",
        "ablate-rank-out", "verify-ridge-out", "train-model-missing-parent", "bench-out-below-a-file",
    ],
)
def test_cli_unwritable_or_unreadable_path_exits_2_naming_it(
    cli_files, tmp_path, capsys, monkeypatch, argv
):
    """A directory given as a file, a file in a missing directory, or an
    existing file given as or above bench's output directory, is a bad
    argument: exit 2 naming the path, no traceback, and before any work."""
    cfg, model, basis = cli_files

    def work(*args, **kwargs):
        raise AssertionError("work started before the paths were checked")

    monkeypatch.setattr(bench, "gen_dataset", work)
    monkeypatch.setattr(ridge, "verify_equivalence", work)
    bad = tmp_path / "taken"
    if argv.startswith("bench"):
        bad.write_text("")
    elif not argv.endswith("/m.npz"):
        bad.mkdir()
    words = argv.format(cfg=cfg, model=model, basis=basis, bad=bad).split()
    assert cli.main(words) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bad) in err


def cli_adapt(cli_files, config, method, out):
    _, model, basis = cli_files
    return cli.main(
        [
            "adapt", "--config", str(config), "--model", str(model), "--basis", str(basis),
            "--method", method, "--out", str(out),
        ]
    )


@pytest.mark.parametrize("method", ["no-adapt", "spectral-relu"])
def test_cli_adapt_without_corruption_runs_on_the_clean_set(cli_files, tmp_path, method):
    from spectral_tta.adapt import baseline_no_adapt, run_adaptation

    out = tmp_path / "r.jsonl"
    assert cli_adapt(cli_files, cli_files[0], method, out) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    cfg = load_config(json.loads(cli_files[0].read_text()))
    model = load_model(cli_files[1])
    _, (x, y) = gen_dataset(bench._dataset_spec(cfg))
    batches = make_batches(x, y, cfg["adapt"]["batch_size"])
    if method == "no-adapt":
        expected = baseline_no_adapt(model, batches)
    else:
        basis = PcaBasis.load(cli_files[2])
        work = bench._spectral_model(model, cfg, basis, method)
        expected = run_adaptation(work, batches, bench._adapt_config(cfg), method=method)
    assert len(rows) == len(batches) > 1
    assert [{k: row[k] for k in expected.batches[0]} for row in rows] == expected.batches


@pytest.mark.parametrize("fitted_on", ["another-insert-index", "another-checkpoint"])
def test_cli_basis_fitted_elsewhere_exits_2(cli_files, tmp_path, capsys, fitted_on):
    """A basis fitted at insert_index 3 is refused at 2, where the adapter's
    input has the same width (48); so is one fitted on another checkpoint
    of the same shapes."""
    cfg, model, basis = cli_files
    key, cause = "model_hash", "of the checkpoint"
    if fitted_on == "another-insert-index":
        key, cause = "insert_index", "3 in the basis, 2 in the config"
        cfg = adapt_config_file(cli_files, tmp_path, {})
        cfg.write_text(cfg.read_text().replace('"insert_index": 3', '"insert_index": 2'))
    else:
        model = tmp_path / "other.npz"
        save_model(build_model(1, input_shape=(2, 4, 4), conv_channels=(3, 3), n_classes=4), model)
    args = ["--config", str(cfg), "--model", str(model), "--basis", str(basis)]
    out = tmp_path / "out"
    assert cli.main(["adapt", *args, "--out", str(tmp_path / "r.jsonl")]) == 2
    assert cli.main(["bench", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"basis {basis} does not match checkpoint {model} and the config: {key} ") == 2
    assert err.count(cause) == 2
    assert not (tmp_path / "r.jsonl").exists() and not out.exists()


@pytest.mark.parametrize(
    "method", ["no-adapt", "bn-stats", "bn-modulators", "spectral-relu", "spectral-exp"]
)
def test_cli_inference_with_overflowing_logits_exits_3(cli_files, tmp_path, capsys, method):
    """Finite weights whose logits overflow: every method refuses the
    batch's first forward, so no record holds a non-finite entropy and no
    entropy method takes a step from it."""
    model = load_model(cli_files[1])
    head = model.layers[-1]
    head.w *= 1e308 / np.max(np.abs(head.w))
    path, basis = tmp_path / "huge.npz", tmp_path / "huge_basis.npz"
    save_model(model, path)
    out = tmp_path / "r.jsonl"
    argv = ["adapt", "--config", str(cli_files[0]), "--model", str(path), "--method", method]
    if method.startswith("spectral"):  # the basis records the checkpoint's hash
        fit = ["fit-pca", "--config", str(cli_files[0]), "--model", str(path), "--basis", str(basis)]
        assert cli.main(fit) == 0
        argv += ["--basis", str(basis)]
    with np.errstate(all="ignore"):  # the overflow is provoked on purpose
        assert cli.main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    assert f"{method} gave non-finite logits on batch 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_arrays(cli_files):
    """The arrays the CLI loads from ``cli_files``."""
    _, model, basis = cli_files
    return dict(load_model(model).frozen_param_items()), PcaBasis.load(basis)


@settings(max_examples=300, deadline=None, database=None)
@given(
    target=st.sampled_from(["model", "basis"]),
    mutation=st.sampled_from(["truncate", "flip", "overwrite"]),
    at=st.integers(0, 2**32 - 1),
    bit=st.integers(0, 7),
    byte=st.integers(0, 255),
)
def test_cli_adapt_on_a_mutated_file_exits_0_only_on_unchanged_arrays(
    cli_files, cli_arrays, tmp_path_factory, target, mutation, at, bit, byte
):
    """One byte of the checkpoint or the basis truncated at, flipped or
    overwritten: adapt exits 2 naming the file, or 0 with the arrays it
    loaded bitwise unchanged."""
    cfg, model, basis = cli_files
    tmp = tmp_path_factory.mktemp("mutated")
    paths = {"model": tmp / "model.npz", "basis": tmp / "basis.npz"}
    for name, original in (("model", model), ("basis", basis)):
        paths[name].write_bytes(original.read_bytes())
    raw = bytearray(paths[target].read_bytes())
    at %= len(raw)
    if mutation == "truncate":
        raw = raw[:at]
    elif mutation == "flip":
        raw[at] ^= 1 << bit
    else:
        raw[at] = byte
    paths[target].write_bytes(bytes(raw))
    argv = ["adapt", "--config", str(cfg), "--model", str(paths["model"])]
    argv += ["--basis", str(paths["basis"]), "--out", str(tmp / "r.jsonl")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert str(paths[target]) in err.getvalue()
        return
    weights, fitted = cli_arrays
    loaded = dict(load_model(paths["model"]).frozen_param_items())
    assert loaded.keys() == weights.keys()
    assert all(loaded[k].tobytes() == weights[k].tobytes() for k in weights)
    again = PcaBasis.load(paths["basis"])
    for name in ("mean", "components", "singular_values"):
        assert getattr(again, name).tobytes() == getattr(fitted, name).tobytes()
    assert (again.n_fitted, again.insert_index, again.model_hash) == (
        fitted.n_fitted, fitted.insert_index, fitted.model_hash,
    )


# (adapt overrides, method, what the error names); one online step leaves
# the modulators finite but not the logits, so only the logits check sees it
DIVERGING = [
    ({"learning_rate": 1e308, "steps_per_batch": 3}, "spectral-relu", "non-finite parameters"),
    ({"learning_rate": 1e308, "steps_per_batch": 3}, "spectral-exp", "non-finite parameters"),
    ({"learning_rate": 1e308}, "spectral-exp", "non-finite parameters"),
    ({"learning_rate": 1e308}, "bn-modulators", "non-finite parameters"),
    (
        {"learning_rate": 1e308, "steps_per_batch": 1, "protocol": "online"},
        "bn-modulators",
        "non-finite logits",
    ),
]


def adapt_config_file(cli_files, tmp_path, adapt_over):
    cfg = json.loads(cli_files[0].read_text())
    cfg["adapt"].update(adapt_over)
    path = tmp_path / "adapt.json"
    path.write_text(json.dumps(cfg))
    return path


# the overflow is provoked on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("adapt_over, method, cause", DIVERGING)
def test_cli_diverged_adaptation_exits_3(cli_files, tmp_path, capsys, adapt_over, method, cause):
    out = tmp_path / "r.jsonl"
    assert cli_adapt(cli_files, adapt_config_file(cli_files, tmp_path, adapt_over), method, out) == 3
    assert not out.exists()
    assert f"{method} adaptation diverged on batch 0: {cause}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_bench_exits_3_and_writes_nothing(cli_files, tmp_path, capsys):
    adapt_over, method, _ = DIVERGING[0]
    _, model, basis = cli_files
    out = tmp_path / "out"
    args = [
        "bench", "--config", str(adapt_config_file(cli_files, tmp_path, adapt_over)),
        "--model", str(model), "--basis", str(basis), "--out", str(out),
    ]
    assert cli.main(args) == 3
    assert not out.exists()
    assert f"{method} adaptation diverged" in capsys.readouterr().err


# ---- the grid on two cores ------------------------------------------------------


def fork_on_two_cpus(monkeypatch):
    """Make map_halves fork, whatever CPUs this machine gives the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@contextlib.contextmanager
def within(seconds):
    """Fail a block that runs past ``seconds``, where it would hang."""

    def expire(signum, frame):
        # not a TimeoutError: that is an OSError, which os.waitpid's caller
        # in multiprocessing swallows
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def only_the_helper_is_left():
    """The grid's helper is this process's one child, and closing it
    leaves none."""
    assert len(multiprocessing.active_children()) == 1
    twocore.close()
    assert multiprocessing.active_children() == []


def child_pids() -> list:
    """The pids of this process's children that have not exited."""
    return [child.pid for child in multiprocessing.active_children()]


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# the functions below are map_halves's fn in the tests that follow: fn
# reaches the helper by pickle, so each is defined at module level


def pids(part):
    """The pid of the process that evaluates each item."""
    return [os.getpid() for _ in part]


def blas_threads(part):
    """The BLAS thread count of the process that evaluates each item."""
    return [twocore._BLAS[0]() for _ in part]


def as_strings(part):
    return [str(cell) for cell in part]


def a_megabyte_per_cell(part):
    return [cell * 2**20 for cell in part]


def raises_in_the_helper(exc, parent, part):
    if part == [1]:  # the second half, the helper's
        assert os.getpid() != parent
        raise exc
    return part


def raises_in_the_parent(part):
    if part == [0]:
        raise NumericalFailureError("the parent's cell failed")
    time.sleep(60)


def exits_in_the_helper(code, part):
    if part == [1]:
        os._exit(code)
    return part


class LockHolder(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def kills_the_stopped_helper(helper, part):
    """The parent's half kills the helper, stopped before it read the request."""
    if part == [0]:
        os.kill(helper, signal.SIGKILL)
        while running(helper):
            time.sleep(0.01)
    return part


class TwoArguments(Exception):
    """An exception that pickles but cannot be unpickled: its args do not
    fit its __init__."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def unpicklable_in_the_helper(kind, part):
    if part == [1]:
        if kind == "exception":
            raise LockHolder("the helper's cell failed")
        if kind == "unpickled":
            raise TwoArguments("this", "that")
        return [threading.Lock()]
    return part


def nested_grids(part):
    """A map_halves call from inside fn."""
    return [twocore.map_halves(pids, [0, 1]) for _ in part]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def repeat_cell_faults(cfg, model, part):
    """The minor page faults of this process over a repeated no-adapt
    gaussian-noise cell, after one run of the same cell."""
    bench.run_cell(cfg, model, None, "no-adapt", "gaussian-noise", 5)
    before = minor_faults()
    bench.run_cell(cfg, model, None, "no-adapt", "gaussian-noise", 5)
    return [minor_faults() - before for _ in part]


def send_grids(send, items):
    """A forked worker's work: each grid through map_halves, sent back."""
    send.send([twocore.map_halves(as_strings, grid) for grid in items])


def send_helper_pids(send):
    send.send(twocore.map_halves(pids, [0, 1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("adapt_over, method, cause", DIVERGING)
def test_cli_bench_whose_forked_half_diverges_exits_3_and_writes_nothing(
    cli_files, tmp_path, capsys, monkeypatch, adapt_over, method, cause
):
    """Only the grid's last cell, the one the helper evaluates, is run
    with the diverging adapt values; the parent ends as the serial loop
    did, with one child during the call, the helper, and none after it
    is closed."""
    fork_on_two_cpus(monkeypatch)
    cfg = json.loads(cli_files[0].read_text())
    cfg.update(methods=[method], severities=[1, 3, 5])
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(cfg))
    last = (cfg["corruptions"][-1], 5)
    cell_batches, evaluate, current = bench._cell_batches, bench._evaluate_cell, {}
    children = []

    def batches_of(cfg, test_set, corruption, severity):
        current["cell"] = (corruption, severity)
        return cell_batches(cfg, test_set, corruption, severity)

    def diverges_on_the_last_cell(model, basis, cfg, method, batches, first):
        children.append(len(multiprocessing.active_children()))
        if current["cell"] == last:
            cfg = {**cfg, "adapt": {**cfg["adapt"], **adapt_over}}
        return evaluate(model, basis, cfg, method, batches, first)

    monkeypatch.setattr(bench, "_cell_batches", batches_of)
    monkeypatch.setattr(bench, "_evaluate_cell", diverges_on_the_last_cell)
    _, model, basis = cli_files
    out = tmp_path / "out"
    args = [
        "bench", "--config", str(config), "--model", str(model), "--basis", str(basis),
        "--out", str(out),
    ]
    with within(60):
        assert cli.main(args) == 3
    assert not out.exists()
    assert f"{method} adaptation diverged on batch 0: {cause}" in capsys.readouterr().err
    assert children and set(children) == {1}  # the parent's evaluations saw the helper
    only_the_helper_is_left()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "diverging, named", [({2}, 2), ({0, 2}, 0)], ids=["batch-2", "batches-0-and-2"]
)
def test_cli_bench_whose_record_straddles_the_halves_names_the_diverging_batch(
    cli_files, tmp_path, capsys, monkeypatch, diverging, named
):
    """One cell of three episodic batches, split 2/1: the helper's part
    starts at batch 2 and names it by its index in the cell. Where the
    parent's part diverges too, its batch is named, since its error comes
    first, and the helper is ended; otherwise the helper is the one child
    left. Each batch is evaluated on its own, with the diverging adapt
    values or without."""
    fork_on_two_cpus(monkeypatch)
    cfg = json.loads(cli_files[0].read_text())
    cfg["methods"] = ["spectral-relu"]
    config = tmp_path / "cell.json"
    config.write_text(json.dumps(cfg))
    evaluate = bench._evaluate_cell
    children = []

    def diverges_on_some_batches(model, basis, cfg, method, batches, first):
        children.append(len(multiprocessing.active_children()))
        diverged = {**cfg, "adapt": {**cfg["adapt"], **DIVERGING[0][0]}}
        recs = [
            evaluate(model, basis, diverged if b in diverging else cfg, method, [batch], b)
            for b, batch in enumerate(batches, first)
        ]
        recs[0].batches = [row for rec in recs for row in rec.batches]
        return recs[0]

    monkeypatch.setattr(bench, "_evaluate_cell", diverges_on_some_batches)
    _, model, basis = cli_files
    out = tmp_path / "out"
    args = [
        "bench", "--config", str(config), "--model", str(model), "--basis", str(basis),
        "--out", str(out),
    ]
    with within(60):
        assert cli.main(args) == 3
    assert not out.exists()
    assert f"spectral-relu adaptation diverged on batch {named}: " in capsys.readouterr().err
    assert children == [1]  # the parent's one evaluation saw the helper
    if 0 in diverging:
        assert multiprocessing.active_children() == []
    else:
        only_the_helper_is_left()


@pytest.mark.parametrize(
    "exc",
    [
        ConfigError("invalid config values: adapt.steps_per_batch:0", ["adapt.steps_per_batch:0"]),
        NumericalFailureError("did not converge", residual=0.25),
        EmptyBasisError("no variance at layer 2", residual=0.0),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_an_error_raised_in_the_forked_half_reaches_the_caller_whole(exc, monkeypatch):
    again = pickle.loads(pickle.dumps(exc))
    assert (type(again), again.args, vars(again)) == (type(exc), exc.args, vars(exc))
    fork_on_two_cpus(monkeypatch)
    fn = functools.partial(raises_in_the_helper, exc, os.getpid())
    with within(30), pytest.raises(type(exc)) as caught:
        twocore.map_halves(fn, [0, 1])
    assert (caught.value.args, vars(caught.value)) == (exc.args, vars(exc))
    only_the_helper_is_left()


def test_results_larger_than_the_pipes_buffer_arrive_in_cell_order(monkeypatch):
    fork_on_two_cpus(monkeypatch)
    with within(30):  # a join before the receive would wait for ever
        cells = twocore.map_halves(a_megabyte_per_cell, ["a", "b", "c"])
    assert cells == ["a" * 2**20, "b" * 2**20, "c" * 2**20]
    only_the_helper_is_left()


def test_a_daemonic_process_runs_every_cell_itself(monkeypatch):
    """A Pool worker may start no child, so its grid runs in process."""
    fork_on_two_cpus(monkeypatch)
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=send_grids, args=(send, [[0, 1, 2]]), daemon=True)
    worker.start()
    send.close()
    with within(30):
        assert receive.recv() == [["0", "1", "2"]]
        worker.join()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fallback", ["one-item", "one-cpu", "no-fork", "no-blas-calls"])
def test_each_in_process_fallback_runs_every_item_here_and_forks_nothing(monkeypatch, fallback):
    """Fewer than two items, one usable CPU, no ``fork`` start method or a
    BLAS without OpenBLAS's thread calls: this process makes the one call,
    and no helper is forked."""
    fork_on_two_cpus(monkeypatch)
    if fallback == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if fallback == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    if fallback == "no-blas-calls":
        monkeypatch.setattr(twocore, "_BLAS", None)
    items = [0] if fallback == "one-item" else [0, 1, 2]
    with within(30):
        assert twocore.map_halves(pids, items) == [os.getpid()] * len(items)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not twocore._HEAP, reason="the C library has no mallopt, or it set nothing")
def test_a_repeated_cell_faults_in_no_fresh_pages_in_either_process(monkeypatch):
    """With malloc's thresholds pinned at import, a default-config cell run
    a second time reuses the heap pages of the first, in this process and
    in the helper, which inherits the pin through fork. Unpinned, glibc's
    dynamic thresholds trim the heap after each large free, and the repeat
    faulted in about 1,660 fresh pages in each process."""
    fork_on_two_cpus(monkeypatch)
    cfg = bench.load_config()
    model = build_model(0, **bench._model_args(cfg))
    [alone] = repeat_cell_faults(cfg, model, [0])
    with within(60):
        ours, theirs = twocore.map_halves(functools.partial(repeat_cell_faults, cfg, model), [0, 1])
    assert alone < 64 and ours < 64 and theirs < 64, (alone, ours, theirs)
    only_the_helper_is_left()


UNPINNED_BENCH = """
import ctypes, sys, types

# the C library as twocore looks it up: without mallopt, or with one that sets nothing
libc = types.SimpleNamespace()
if sys.argv[1] == "refused":
    libc.mallopt = lambda param, value: 0
real = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: libc if name is None else real(name, *args, **kwargs)

from spectral_tta import cli, twocore

print(repr(twocore._HEAP), flush=True)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("lookup, heap", [("no-mallopt", "None"), ("refused", "False")])
def test_a_process_whose_heap_pin_did_not_take_writes_the_same_grid(cli_files, tmp_path, lookup, heap):
    """Where the C library has no ``mallopt``, or its calls set nothing,
    the import raises nothing, ``_HEAP`` says so, and the grid runs as a
    pinned process's does, byte for byte."""
    cfg, model, basis = cli_files
    argv = ["bench", "--config", str(cfg), "--model", str(model), "--basis", str(basis), "--out"]
    pinned, unpinned = tmp_path / "pinned", tmp_path / "unpinned"
    assert cli.main([*argv, str(pinned)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(bench.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", UNPINNED_BENCH, lookup, *argv, str(unpinned)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == heap
    names = sorted(p.name for p in pinned.iterdir())
    assert "table.csv" in names and names == sorted(p.name for p in unpinned.iterdir())
    for name in names:
        assert (pinned / name).read_bytes() == (unpinned / name).read_bytes(), name


@pytest.mark.parametrize("setting", [None, "2", "1"])  # of OPENBLAS_NUM_THREADS
def test_both_halves_run_one_blas_thread_and_the_count_comes_back(monkeypatch, request, setting):
    """OpenBLAS read its variables when numpy loaded, so none decides the
    split: with the library at two threads, each half runs at one, and the
    count is two again after a call, also after one whose own half raised."""
    fork_on_two_cpus(monkeypatch)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if setting is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
    get, set_ = twocore._BLAS
    request.addfinalizer(functools.partial(set_, get()))
    set_(2)
    with within(30):
        assert twocore.map_halves(blas_threads, [0, 1, 2]) == [1, 1, 1]
        assert len(child_pids()) == 1 and get() == 2
        with pytest.raises(NumericalFailureError, match="the parent's cell failed"):
            twocore.map_halves(raises_in_the_parent, [0, 1])
    assert get() == 2 and multiprocessing.active_children() == []


def test_run_benchmark_looks_the_map_up_at_call_time(
    tiny_config, tiny_model, tiny_basis, monkeypatch
):
    """A stand-in set on ``twocore.map_halves`` after ``bench`` was
    imported serves the grid, as a tracer's would: it forks nothing, and
    the table and records equal a two-core run's."""
    fork_on_two_cpus(monkeypatch)
    cfg = one_cell_config(tiny_config)
    cfg["methods"] = ["no-adapt", "spectral-relu"]
    with within(60):
        two_cores = run_benchmark(cfg, tiny_model, tiny_basis)
    only_the_helper_is_left()
    monkeypatch.setattr(twocore, "map_halves", lambda fn, items: fn(items))
    assert run_benchmark(cfg, tiny_model, tiny_basis) == two_cores
    assert multiprocessing.active_children() == []


def test_a_child_that_exits_without_sending_raises_naming_its_exit_code(
    tiny_config, tiny_model, monkeypatch
):
    fork_on_two_cpus(monkeypatch)
    parent, evaluate = os.getpid(), bench._evaluate_cell

    def exits_in_the_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return evaluate(*args)

    monkeypatch.setattr(bench, "_evaluate_cell", exits_in_the_child)
    cfg = one_cell_config(tiny_config)
    cfg.update(methods=["no-adapt"], severities=[3, 5])
    with within(30), pytest.raises(RuntimeError, match="exited with code 1 before sending"):
        run_benchmark(cfg, tiny_model, None)
    assert multiprocessing.active_children() == []


def test_cli_bench_whose_helper_dies_exits_4_with_one_line_and_writes_nothing(
    cli_files, tmp_path, capsys, monkeypatch
):
    fork_on_two_cpus(monkeypatch)
    parent, evaluate = os.getpid(), bench._evaluate_cell

    def exits_in_the_child(*args):
        if os.getpid() != parent:
            os._exit(9)
        return evaluate(*args)

    monkeypatch.setattr(bench, "_evaluate_cell", exits_in_the_child)
    config, model, basis = cli_files
    out = tmp_path / "out"
    args = [
        "bench", "--config", str(config), "--model", str(model), "--basis", str(basis),
        "--out", str(out),
    ]
    with within(60):
        assert cli.main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("two-core failure: ") and err.count("\n") == 1
    assert "exited with code 9" in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_a_failure_in_the_parents_half_ends_the_child(monkeypatch):
    fork_on_two_cpus(monkeypatch)
    with within(30), pytest.raises(NumericalFailureError, match="the parent's cell failed"):
        twocore.map_halves(raises_in_the_parent, [0, 1])
    assert multiprocessing.active_children() == []


def test_one_helper_serves_every_call(tiny_config, tiny_model, monkeypatch):
    fork_on_two_cpus(monkeypatch)
    parent = os.getpid()
    with within(30):
        first = twocore.map_halves(pids, [0, 1, 2])
        cfg = one_cell_config(tiny_config)
        cfg.update(methods=["no-adapt"], severities=[3, 5])
        run_benchmark(cfg, tiny_model, None)
        second = twocore.map_halves(pids, [0, 1])
    helper = first[2]
    assert first == [parent, parent, helper] and second == [parent, helper]
    assert child_pids() == [helper]
    only_the_helper_is_left()


def test_a_failure_in_the_parents_half_ends_that_helper_and_the_next_call_forks_one(monkeypatch):
    fork_on_two_cpus(monkeypatch)
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        with pytest.raises(NumericalFailureError, match="the parent's cell failed"):
            twocore.map_halves(raises_in_the_parent, [0, 1])
        assert multiprocessing.active_children() == [] and not running(helper)
        again = twocore.map_halves(pids, [0, 1])
    assert again == [os.getpid(), *child_pids()] and again[1] != helper
    only_the_helper_is_left()


def test_a_helper_that_exits_raises_naming_its_code_and_the_next_call_forks_one(monkeypatch):
    fork_on_two_cpus(monkeypatch)
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        with pytest.raises(RuntimeError, match="exited with code 3 before sending"):
            twocore.map_halves(functools.partial(exits_in_the_helper, 3), [0, 1])
        assert multiprocessing.active_children() == [] and not running(helper)
        again = twocore.map_halves(pids, [0, 1])
    assert again == [os.getpid(), *child_pids()] and again[1] != helper
    only_the_helper_is_left()


@pytest.mark.parametrize("unread", [False, True], ids=["dead-before-the-call", "request-unread"])
def test_a_killed_helper_raises_naming_its_signal_and_the_next_call_forks_one(monkeypatch, unread):
    """A helper that is dead before a call refuses the request; one that
    dies with the request unread resets the connection. Either way the
    call names the signal."""
    fork_on_two_cpus(monkeypatch)
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        if unread:
            os.kill(helper, signal.SIGSTOP)
            fn = functools.partial(kills_the_stopped_helper, helper)
        else:
            os.kill(helper, signal.SIGKILL)
            while running(helper):
                time.sleep(0.01)
            fn = pids
        with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL} before sending"):
            twocore.map_halves(fn, [0, 1])
        assert multiprocessing.active_children() == []
        again = twocore.map_halves(pids, [0, 1])
    assert again == [os.getpid(), *child_pids()] and again[1] != helper
    only_the_helper_is_left()


def test_the_helper_leaves_ctrl_c_to_its_parent(monkeypatch):
    """A terminal sends SIGINT to the whole process group; an idle helper
    ignores it and serves the next call."""
    fork_on_two_cpus(monkeypatch)
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        os.kill(helper, signal.SIGINT)
        assert twocore.map_halves(pids, [0, 1]) == [os.getpid(), helper]
    only_the_helper_is_left()


@pytest.mark.parametrize(
    "kind, message",
    [
        ("exception", "could not send LockHolder: the helper's cell failed (TypeError: "),
        ("result", "could not send its result (TypeError: "),
        ("unpickled", "sent a reply this process cannot unpickle (TypeError: "),
    ],
)
def test_a_reply_that_cannot_be_pickled_or_unpickled_names_its_cause_and_the_helper_lives_on(
    monkeypatch, capfd, kind, message
):
    fork_on_two_cpus(monkeypatch)
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        with pytest.raises(RuntimeError) as caught:
            twocore.map_halves(functools.partial(unpicklable_in_the_helper, kind), [0, 1])
        assert message in str(caught.value) and "pickle" in str(caught.value)
        assert twocore.map_halves(pids, [0, 1]) == [os.getpid(), helper]
    assert capfd.readouterr().err == ""  # no traceback from a dying helper
    only_the_helper_is_left()


def test_a_call_from_inside_fn_runs_in_process(monkeypatch):
    """The outer call holds the helper, so the inner one must not wait
    for it (a deadlock) nor share its pipe."""
    fork_on_two_cpus(monkeypatch)
    parent = os.getpid()
    with within(30):
        outer = twocore.map_halves(nested_grids, [0, 1])
    [helper] = child_pids()
    # the parent's inner call ran in process; the helper is daemonic, so its did too
    assert outer == [[parent, parent], [helper, helper]]
    only_the_helper_is_left()


def test_a_forked_child_forks_its_own_helper(monkeypatch):
    """A child forked after a two-core call does not talk to its parent's
    helper, whose pipe it inherited."""
    fork_on_two_cpus(monkeypatch)
    ctx = multiprocessing.get_context("fork")
    with within(30):
        helper = twocore.map_halves(pids, [0, 1])[1]
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_helper_pids, args=(send,))
        child.start()
        send.close()
        theirs = receive.recv()
        child.join()
        assert child.exitcode == 0
        assert theirs[0] == child.pid and theirs[1] not in (child.pid, helper)
        assert twocore.map_halves(pids, [0, 1]) == [os.getpid(), helper]
    only_the_helper_is_left()


ONE_CALL = """
import os, sys, time
from spectral_tta import twocore

os.sched_getaffinity = lambda pid: {0, 1}


def part(items):
    if items == [1]:
        print(os.getpid(), flush=True)  # the helper's pid
        time.sleep(float(sys.argv[1]))
    return items


twocore.map_halves(part, [0, 1])
"""


@pytest.mark.parametrize("ending", ["exit", "sigkill"])
def test_the_helper_ends_with_its_parent(ending):
    """A process that made one two-core call and exited, or was killed
    while it waited for the helper's reply, leaves no helper behind."""
    env = {**os.environ, "PYTHONPATH": str(Path(bench.__file__).parents[1])}
    wait = "0" if ending == "exit" else "2"
    proc = subprocess.Popen(
        [sys.executable, "-c", ONE_CALL, wait], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        helper = int(proc.stdout.readline())
        if ending == "sigkill":
            proc.kill()
        assert proc.wait(timeout=30) == (0 if ending == "exit" else -signal.SIGKILL)
    finally:
        proc.kill()
        proc.stdout.close()
    deadline = time.monotonic() + 10
    while running(helper) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = running(helper)
    if left:
        os.kill(helper, signal.SIGKILL)  # so a failing run leaves no process behind
    assert not left


@pytest.mark.parametrize("adapt_over", [{"learning_rate": 1e300}, {"gamma_init": 1e300}], ids=str)
def test_cli_huge_finite_adapt_value_runs_without_overflow(cli_files, tmp_path, adapt_over):
    """A config value every rule accepts drives gamma to about 1e300, where
    squaring it would overflow; the neg-exp filter stays finite and quiet."""
    out = tmp_path / "r.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_adapt(cli_files, adapt_config_file(cli_files, tmp_path, adapt_over), "spectral-exp", out)
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize(
    "adapt_over, key",
    [
        ({"adam_beta1": 1.0}, "adapt.adam_beta1"),
        ({"adam_beta2": 1.5}, "adapt.adam_beta2"),
        ({"adam_eps": 0.0}, "adapt.adam_eps"),
        ({"protocol": "foo"}, "adapt.protocol"),
        ({"adam_eps": math.inf}, "adapt.adam_eps"),
    ],
)
def test_cli_invalid_adapt_value_exits_2_naming_the_key(cli_files, tmp_path, capsys, adapt_over, key):
    out = tmp_path / "r.jsonl"
    assert cli_adapt(cli_files, adapt_config_file(cli_files, tmp_path, adapt_over), "spectral-relu", out) == 2
    assert not out.exists()
    assert key in capsys.readouterr().err


def test_cli_adapt_rejects_severity_out_of_range_without_corruption(cli_files, tmp_path, capsys):
    cfg, model, basis = cli_files
    args = [
        "adapt", "--config", str(cfg), "--model", str(model), "--basis", str(basis),
        "--method", "no-adapt", "--severity", "9", "--out", str(tmp_path / "r.jsonl"),
    ]
    with pytest.raises(SystemExit) as info:
        cli.main(args)
    assert info.value.code == 2
    assert "--severity" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("model", "conv_channels", [10**13]), ("dataset", "n_train", 10**14)],
    ids=["conv-weights", "train-labels"],
)
def test_cli_train_too_large_to_allocate_exits_2_without_traceback(
    tmp_path, capsys, section, key, value
):
    """Each value's first array needs more than 2**47 bytes, more than a
    process can address, so its allocation fails at once whatever the
    memory overcommit policy."""
    cfg = json.loads(write_tiny_cli_config(tmp_path).read_text())
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    model = tmp_path / "m.npz"
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 2
    out, err = capsys.readouterr()
    assert "Unable to allocate" in err
    assert "Traceback" not in out + err
    assert not model.exists()


# the overflow is provoked on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverged_training_exits_3_and_writes_no_checkpoint(cli_files, tmp_path, capsys):
    cfg = json.loads(cli_files[0].read_text())
    cfg["model"]["train_lr"] = 1e308
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    model = tmp_path / "m.npz"
    assert cli.main(["train", "--config", str(path), "--model", str(model)]) == 3
    assert not model.exists()
    assert "training diverged" in capsys.readouterr().err
