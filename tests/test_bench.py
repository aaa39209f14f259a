import copy
import json

import numpy as np
import pytest

from spectral_tta import bench, cli
from spectral_tta.adapt import AdaptConfig
from spectral_tta.bench import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    DatasetSpec,
    corrupt,
    gen_dataset,
    load_config,
    make_batches,
    run_benchmark,
)
from spectral_tta.errors import ConfigError, ContractViolationError
from spectral_tta.network import build_model, load_model, save_model
from spectral_tta.pca import PcaBasis

SMALL = DatasetSpec(n_train=60, n_test=40, channels=2, height=4, width=4, seed=3)


# ---- dataset ------------------------------------------------------------


def test_dataset_deterministic():
    (ax, ay), (tx, ty) = gen_dataset(SMALL)
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


def test_dataset_seed_and_generator_matter():
    (ax, _), _ = gen_dataset(SMALL)
    (bx, _), _ = gen_dataset(DatasetSpec(**{**SMALL.__dict__, "seed": 4}))
    assert not np.array_equal(ax, bx)
    (cx, _), _ = gen_dataset(
        DatasetSpec(**{**SMALL.__dict__, "generator": "gaussian-textures"})
    )
    assert not np.array_equal(ax, cx)


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
    ]
    for override, key in cases:
        with pytest.raises(ConfigError) as info:
            load_config(override)
        assert info.value.keys == [key]
    with pytest.raises(ContractViolationError, match="adapt.adam_beta1"):
        load_config({"adapt": {"adam_beta1": 1.0}})  # AdaptConfig's own checks


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
        assert rec.errors() == plain.errors()
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
    cfg = one_cell_config(tiny_config)
    run_benchmark(cfg, tiny_model, tiny_basis)
    assert tiny_model.weight_hash() == before


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


def test_curve_to_json_round_trip(tmp_path):
    curve = [{"rank": 2, "mean_error": 0.5, "per_seed": [0.5]}]
    path = tmp_path / "curve.json"
    bench.curve_to_json(curve, path)
    assert json.loads(path.read_text()) == curve


# ---- command line -----------------------------------------------------------


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
    basis = tmp_path / "basis.json"
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


def test_cli_missing_model_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.npz"
    args = ["--model", str(missing), "--basis", str(tmp_path / "b.json")]
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["adapt"] + args + ["--method", "no-adapt"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(missing)) == 2
    assert not (tmp_path / "out").exists()


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


def test_cli_string_rank_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pca": {"rank": "8"}}))
    model = tmp_path / "m.npz"
    save_model(build_model(0), model)
    basis = tmp_path / "basis.json"
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]) == 2
    assert not basis.exists()
    err = capsys.readouterr().err
    assert "'pca.rank' must have the type of its default 64, got '8'" in err


def _corrupt_basis(payload, case):
    if case == "components":
        payload["components"] = payload["components"][:-1]
    elif case == "mean":
        payload["mean"] = payload["mean"] + [0.0]
    elif case == "singular-values":
        payload["singular_values"] = payload["singular_values"][:1]
    elif case == "non-finite":
        payload["components"][3] = float("nan")
    elif case == "increasing":
        payload["singular_values"] = payload["singular_values"][::-1]
    elif case == "non-positive":
        payload["singular_values"][-1] = 0.0
    elif case == "rank-type":
        payload["rank"] = "2"
    elif case == "non-orthonormal":
        payload["components"][0] = 1.5  # row 0 is no longer a unit vector


@pytest.mark.parametrize(
    "case",
    [
        "components", "mean", "singular-values", "non-finite", "increasing", "non-positive",
        "rank-type", "non-orthonormal",
    ],
)
def test_cli_invalid_basis_file_exits_2(tmp_path, capsys, case):
    model = tmp_path / "m.npz"
    save_model(build_model(0), model)
    basis = tmp_path / "basis.json"
    PcaBasis(
        mean=np.zeros(4),
        components=np.eye(4)[:2],
        singular_values=np.array([2.0, 1.0]),
        n_fitted=10,
    ).save(basis)
    payload = json.loads(basis.read_text())
    _corrupt_basis(payload, case)
    basis.write_text(json.dumps(payload))
    with pytest.raises(ContractViolationError, match="invalid basis file"):
        PcaBasis.load(basis)
    args = ["--model", str(model), "--basis", str(basis)]
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["adapt"] + args + ["--out", str(tmp_path / "r.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"invalid basis file {basis}") == 2
    assert not (tmp_path / "out").exists()


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
        spec = json.loads(bytes(arrays["spec"]).decode())
        del spec["layers"][0]["kernel"]
        arrays["spec"] = np.frombuffer(json.dumps(spec).encode(), dtype=np.uint8)
    elif case == "no-spec":
        del arrays["spec"]


@pytest.mark.parametrize(
    "case",
    [
        "missing", "non-finite", "conv-in-channels", "bn-channels", "linear-width",
        "negative-variance", "no-kernel", "no-spec", "not-an-archive",
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
    with pytest.raises(ContractViolationError, match="invalid checkpoint"):
        load_model(model)
    cfg = write_tiny_cli_config(tmp_path)
    args = ["--config", str(cfg), "--model", str(model), "--basis", str(tmp_path / "b.json")]
    records = ["--method", "no-adapt", "--out", str(tmp_path / "r.jsonl")]
    assert cli.main(["adapt"] + args + records) == 2
    assert cli.main(["bench"] + args + ["--out", str(tmp_path / "out")]) == 2
    assert cli.main(["fit-pca"] + args) == 2
    err = capsys.readouterr().err
    assert err.count(f"invalid checkpoint {model}") == 3
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "b.json").exists()


def test_saved_checkpoint_loads_unchanged(tmp_path):
    model = build_model(3, input_shape=(2, 4, 4), conv_channels=(3, 3), n_classes=3)
    path = tmp_path / "m.npz"
    save_model(model, path)
    assert load_model(path).weight_hash() == model.weight_hash()


# ---- the cell evaluator ---------------------------------------------------


@pytest.mark.parametrize("method", list(bench.METHODS))
def test_run_cell_returns_the_grid_record(method, tiny_config, tiny_model, tiny_basis):
    cfg = one_cell_config(tiny_config)
    cfg["methods"] = [method]
    _, records = run_benchmark(cfg, tiny_model, tiny_basis)
    grid = records[f"{method}__gaussian-noise__sev3"]
    rec = bench.run_cell(cfg, tiny_model, tiny_basis, method, "gaussian-noise", 3)
    assert (rec.method, rec.protocol) == (grid.method, grid.protocol)
    assert rec.batches == grid.batches  # errors, both entropies, params_hash


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The tiny CLI config and the model and basis files the CLI makes from it."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_tiny_cli_config(tmp)
    model, basis = tmp / "model.npz", tmp / "basis.json"
    assert cli.main(["train", "--config", str(cfg), "--model", str(model)]) == 0
    assert cli.main(["fit-pca", "--config", str(cfg), "--model", str(model), "--basis", str(basis)]) == 0
    return cfg, model, basis


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


@pytest.mark.parametrize(
    "adapt_over, key",
    [
        ({"adam_beta1": 1.0}, "adapt.adam_beta1"),
        ({"adam_beta2": 1.5}, "adapt.adam_beta2"),
        ({"adam_eps": 0.0}, "adapt.adam_eps"),
        ({"protocol": "foo"}, "adapt.protocol"),
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
