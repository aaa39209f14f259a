"""Acceptance suite: ten criteria, one test each, stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured output of a failing run). Criteria 1-6 and 8-10 are
property checks on small instances; criterion 7 runs the full-size
benchmark over three seeds and is the slow one (about 11 s on 2 cores).
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from spectral_tta import bench, pca
from spectral_tta.adapt import (
    AdaptConfig,
    baseline_bn_stats,
    baseline_no_adapt,
    baseline_bn_modulators,
    entropy,
    entropy_grad,
    run_adaptation,
)
from spectral_tta.filters import (
    NEG_EXP,
    RELU_RIDGE,
    SpectralFilter,
    apply_filter,
    apply_filter_backward,
)
from spectral_tta.network import (
    BatchNorm2d,
    SpectralAdapterLayer,
    build_model,
    fit_pca_from_source,
    insert_adapter,
    remove_adapter,
)
from spectral_tta.ridge import RegressionProblem, ridge_closed_form, spectral_ridge, verify_equivalence

IN_SHAPE = (2, 4, 4)


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def reference_model(seed=0):
    return build_model(seed, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)


def basis_at(model, j, rng, rank=None):
    shape = model.input_shape if j < 0 else model.layer_output_shapes()[j]
    p = int(np.prod(shape))
    rank = p if rank is None else rank
    batches = [rng.normal(size=(48,) + IN_SHAPE) for _ in range(2)]
    if j < 0:
        return pca.fit_incremental([np.vstack([b.reshape(len(b), -1) for b in batches])], rank=rank)
    return fit_pca_from_source(model, batches, j + 1, rank=rank)


def errors(rec):
    return [b["error"] for b in rec.batches]


def test_criterion_1_identity_recovery(rng):
    model = reference_model()
    x = rng.normal(size=(6,) + IN_SHAPE)
    base_logits, _ = model.forward(x)
    shapes = model.layer_output_shapes()
    positions = [0] + [j + 1 for j, s in enumerate(shapes) if len(s) == 3]
    bases = {j: basis_at(model, j - 1, rng) for j in positions}  # setup, untimed
    start = time.monotonic()
    worst = 0.0
    for j in positions:
        basis = bases[j]
        filt = SpectralFilter(RELU_RIDGE, basis.singular_values)  # gamma = 0
        inserted = insert_adapter(model, j, basis, filt)
        logits, _ = inserted.forward(x)
        worst = max(worst, float(np.abs(logits - base_logits).max()))
        restored = remove_adapter(inserted)
        again, _ = restored.forward(x)
        assert np.array_equal(again, base_logits)
        assert restored.weight_hash() == model.weight_hash()
    elapsed = time.monotonic() - start
    report(
        "criterion 1: identity recovery",
        worst <= 1e-8 and elapsed < 1.0,
        f"max logit drift {worst:.2e} over {len(positions)} positions, {elapsed:.2f}s",
    )


def test_criterion_2_pca_correctness(rng):
    start = time.monotonic()
    # full-rank round trip
    data = rng.normal(size=(40, 8))
    basis = pca.fit_incremental([data], rank=8)
    rec = pca.inverse_transform(basis, pca.transform(basis, data))
    round_trip = float(np.linalg.norm(rec - data) / np.linalg.norm(data))
    # incremental vs batch singular values
    stream = rng.normal(size=(256, 8))
    inc = pca.fit_incremental(np.array_split(stream, 8), rank=8)
    full = pca.fit_incremental([stream], rank=8)
    sv_rel = float(np.abs(inc.singular_values - full.singular_values).max() / full.singular_values.max())
    # Eckart-Young against 100 random orthonormal bases at every rank
    spread = rng.normal(size=(20, 8)) @ np.diag([9, 6, 4, 3, 2, 1.5, 1.0, 0.5])
    centered = spread - spread.mean(axis=0)
    ey_ok = True
    for rank in range(1, 9):
        b = pca.fit_incremental([spread], rank=rank)
        err = np.linalg.norm(
            pca.inverse_transform(b, pca.transform(b, spread)) - spread
        )
        for _ in range(100):
            q, _r = np.linalg.qr(rng.normal(size=(8, rank)))
            ey_ok &= err <= np.linalg.norm(centered @ q @ q.T - centered) + 1e-12
    elapsed = time.monotonic() - start
    report(
        "criterion 2: PCA correctness",
        round_trip <= 1e-8 and sv_rel <= 1e-6 and ey_ok and elapsed < 10.0,
        f"round trip {round_trip:.2e}, incremental sv {sv_rel:.2e}, "
        f"Eckart-Young {'ok' if ey_ok else 'violated'}, {elapsed:.2f}s",
    )


def test_criterion_3_gradient_suite(rng):
    start = time.monotonic()
    h = 1e-6
    worst_filter = 0.0
    case_rng = np.random.default_rng(20)
    for kind in (RELU_RIDGE, NEG_EXP):
        for _ in range(100):
            b = pca.fit_incremental([case_rng.normal(size=(12, 5))], rank=4)
            gamma = case_rng.uniform(0.2, 2.0, 4)
            x = case_rng.normal(size=(6, 5))
            w = case_rng.normal(size=(6, 5))
            filt = SpectralFilter(kind, b.singular_values, gamma)
            scores = pca.transform(b, x)
            _, cache = apply_filter(filt, scores, b.components, b.mean)
            analytic, _ = apply_filter_backward(cache, w)
            for i in range(4):
                gp, gm = gamma.copy(), gamma.copy()
                gp[i] += h
                gm[i] -= h
                fp, fm = (SpectralFilter(kind, b.singular_values, g) for g in (gp, gm))
                lp = np.sum(w * apply_filter(fp, scores, b.components, b.mean)[0])
                lm = np.sum(w * apply_filter(fm, scores, b.components, b.mean)[0])
                fd = (lp - lm) / (2 * h)
                worst_filter = max(worst_filter, abs(fd - analytic[i]) / max(abs(fd), 1e-8))
    # full-network entropy gradient over gamma on the 2-conv reference model
    model = reference_model(seed=3)
    b = basis_at(model, 2, rng)
    gamma = rng.uniform(0.3, 1.5, b.rank)
    adapted = insert_adapter(model, 3, b, SpectralFilter(RELU_RIDGE, b.singular_values, gamma))
    x = rng.normal(size=(5,) + IN_SHAPE)
    logits, caches = adapted.forward(x)
    analytic = adapted.backward_adapt(caches, entropy_grad(logits))
    layer = next(l for l in adapted.layers if isinstance(l, SpectralAdapterLayer))
    worst_net = 0.0
    fh = 1e-5
    for i in range(b.rank):
        old = layer.filt.gamma[i]
        layer.filt.gamma[i] = old + fh
        hp = entropy(adapted.forward(x)[0])
        layer.filt.gamma[i] = old - fh
        hm = entropy(adapted.forward(x)[0])
        layer.filt.gamma[i] = old
        fd = (hp - hm) / (2 * fh)
        worst_net = max(worst_net, abs(fd - analytic[i]) / max(abs(fd), 1e-7))
    elapsed = time.monotonic() - start
    report(
        "criterion 3: gradient suite",
        worst_filter <= 1e-5 and worst_net <= 1e-4 and elapsed < 30.0,
        f"filter rel err {worst_filter:.2e}, network rel err {worst_net:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_ridge_equivalence():
    start = time.monotonic()
    rep = verify_equivalence(trials=50, seed=0)
    y = np.array([[3.0], [-5.0], [7.0]])
    exact = True
    for gamma in [0.0, 0.5, 2.0]:
        prob = RegressionProblem(x=np.eye(3), y=y, gamma=gamma)
        target = y / (1.0 + gamma)
        exact &= bool(np.abs(ridge_closed_form(prob) - target).max() <= 1e-12)
        exact &= bool(np.abs(spectral_ridge(prob) - target).max() <= 1e-12)
    elapsed = time.monotonic() - start
    report(
        "criterion 4: ridge equivalence",
        rep["passed"] and exact and elapsed < 5.0,
        f"max relative deviation {rep['max_relative_deviation']:.2e} over 50 trials, "
        f"identity-design exact: {exact}, {elapsed:.2f}s",
    )


def test_criterion_5_entropy_exactness():
    worst = 0.0
    for c in (2, 4, 10, 100):
        worst = max(worst, abs(entropy(np.full((3, c), 0.37)) - math.log(c)))
    one_hot = np.zeros((2, 10))
    one_hot[:, 0] = 1e4
    limit = entropy(one_hot)
    report(
        "criterion 5: entropy exactness",
        worst <= 1e-12 and limit <= 1e-6,
        f"uniform deviation {worst:.2e}, one-hot limit {limit:.2e}",
    )


def test_criterion_6_frozen_theta(rng):
    model = reference_model(seed=5)
    b = basis_at(model, 2, rng, rank=12)
    adapted = insert_adapter(
        model, 3, b, SpectralFilter(RELU_RIDGE, b.singular_values, np.full(b.rank, 0.01))
    )
    before = adapted.weight_hash()
    batches = [(rng.normal(size=(8,) + IN_SHAPE), rng.integers(0, 3, 8))] * 10
    cfg = AdaptConfig(learning_rate=0.1, steps_per_batch=10, batch_size=8)
    run_adaptation(adapted, batches, cfg)  # 100 adaptation steps total
    after = adapted.weight_hash()
    report(
        "criterion 6: frozen backbone weights",
        before == after,
        f"hash {before} -> {after} across 100 steps",
    )


def test_criterion_7_desk_scale_trend():
    start = time.monotonic()
    seeds = [0, 1, 2]
    means = {m: [] for m in ("no-adapt", "bn-stats", "spectral-relu", "spectral-exp")}
    clean_accs = []
    for seed in seeds:
        cfg = bench.load_config({"seed": seed, "severities": [5]})
        cfg["methods"] = list(means)
        model = bench.train_from_config(cfg)
        basis = bench.fit_basis_from_config(cfg, model)
        _, (test_x, test_y) = bench.gen_dataset(bench._dataset_spec(cfg))
        logits, _ = model.forward(test_x)
        clean_accs.append(float(np.mean(logits.argmax(1) == test_y)))
        table, _ = bench.run_benchmark(cfg, model, basis)
        for m in means:
            means[m].append(table.severity_mean(m, 5))
    avg = {m: float(np.mean(v)) for m, v in means.items()}
    base = avg["no-adapt"]
    rel_relu = (base - avg["spectral-relu"]) / base
    rel_exp = (base - avg["spectral-exp"]) / base
    bn_improves = avg["bn-stats"] < base
    clean_ok = min(clean_accs) >= 0.9
    elapsed = time.monotonic() - start
    report(
        "criterion 7: desk-scale adaptation trend",
        max(rel_relu, rel_exp) >= 0.20 and bn_improves and clean_ok and elapsed < 600.0,
        f"severity-5 mean error over 3 seeds: no-adapt {base:.4f}, "
        f"bn-stats {avg['bn-stats']:.4f}, relu {avg['spectral-relu']:.4f} "
        f"({rel_relu:+.0%} rel), exp {avg['spectral-exp']:.4f} ({rel_exp:+.0%} rel); "
        f"min clean acc {min(clean_accs):.3f}; {elapsed:.0f}s",
    )


def test_criterion_8_protocol_semantics(rng):
    model = reference_model(seed=6)
    b = basis_at(model, 2, rng, rank=12)
    adapted = insert_adapter(
        model, 3, b, SpectralFilter(RELU_RIDGE, b.singular_values, np.full(b.rank, 0.05))
    )
    batches = [
        (rng.normal(size=(8,) + IN_SHAPE), rng.integers(0, 3, 8)) for _ in range(4)
    ]
    cfg = AdaptConfig(learning_rate=0.2, steps_per_batch=3, batch_size=8)
    online = replace(cfg, protocol="online")
    fwd = run_adaptation(adapted.clone(), batches, cfg)
    rev = run_adaptation(adapted.clone(), batches[::-1], cfg)
    perm_ok = sorted(errors(fwd)) == sorted(errors(rev))
    single = batches[:1]
    single_ok = (
        errors(run_adaptation(adapted.clone(), single, cfg))
        == errors(run_adaptation(adapted.clone(), single, online))
    )
    zero = AdaptConfig(learning_rate=0.0, steps_per_batch=3, batch_size=8)
    base = baseline_no_adapt(adapted, batches)
    collapse_ok = (
        errors(run_adaptation(adapted.clone(), batches, zero)) == errors(base)
        and errors(run_adaptation(adapted.clone(), batches, replace(zero, protocol="online")))
        == errors(base)
        and errors(baseline_bn_modulators(model, batches, zero))
        == errors(baseline_bn_stats(model, batches))
    )
    report(
        "criterion 8: protocol semantics",
        perm_ok and single_ok and collapse_ok,
        f"permutation {perm_ok}, single-batch {single_ok}, lr=0 collapse {collapse_ok}",
    )


def test_criterion_9_parameter_accounting(rng):
    model = reference_model(seed=7)
    rank = 12
    b = basis_at(model, 2, rng, rank=rank)
    adapted = insert_adapter(model, 3, b, SpectralFilter(RELU_RIDGE, b.singular_values))
    modulated = model.clone()
    modulated.adapt_target = BatchNorm2d
    bn_channels = sum(len(l.scale) for l in modulated.layers if isinstance(l, BatchNorm2d))
    report(
        "criterion 9: parameter accounting",
        adapted.adapt_params().size == rank and modulated.adapt_params().size == 2 * bn_channels,
        f"filter exposes {adapted.adapt_params().size} (L={rank}), "
        f"modulators expose {modulated.adapt_params().size} (2 x {bn_channels} BN channels)",
    )


def test_criterion_10_reproducibility(tiny_config, tiny_model, tiny_basis, tmp_path, monkeypatch):
    """Two runs of each protocol's grid on two cores, and a third in one
    process (one usable CPU, so nothing is forked), give equal tables and
    records and the same bytes in every file. The one-cell episodic grid
    is split inside its cell."""
    identical, counts = True, []
    grids = [
        ("episodic", ["gaussian-noise", "brightness"], [2, 5]),
        ("online", ["gaussian-noise", "brightness"], [2, 5]),
        ("episodic", ["gaussian-noise"], [5]),
    ]
    for i, (protocol, corruptions, severities) in enumerate(grids):
        cfg = bench.with_value(tiny_config, "adapt.protocol", protocol)
        cfg.update(corruptions=corruptions, severities=severities)
        dirs = [tmp_path / f"{i}_{protocol}_{run}" for run in ("a", "b", "in_process")]
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            runs = [bench.run_benchmark(cfg, tiny_model, tiny_basis, out_dir=d) for d in dirs[:2]]
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            runs.append(bench.run_benchmark(cfg, tiny_model, tiny_basis, out_dir=dirs[2]))
        names = sorted(p.name for p in dirs[0].iterdir())
        counts.append(len(names))
        identical &= len(names) > 1 and all(run == runs[0] for run in runs) and all(
            sorted(p.name for p in d.iterdir()) == names
            and all((d / n).read_bytes() == (dirs[0] / n).read_bytes() for n in names)
            for d in dirs
        )
    report(
        "criterion 10: reproducibility",
        identical,
        f"{' and '.join(map(str, counts))} output files (episodic, online, one episodic cell) "
        "byte-identical across reruns, on two cores and in one process",
    )
