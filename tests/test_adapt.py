import dataclasses
import math

import numpy as np
import pytest

from spectral_tta import adapt, bench
from spectral_tta.adapt import (
    AdamState,
    AdaptConfig,
    adam_step,
    baseline_bn_stats,
    baseline_no_adapt,
    baseline_bn_modulators,
    entropy,
    entropy_grad,
    run_adaptation,
)
from spectral_tta.errors import ConfigError, ContractViolationError
from spectral_tta.filters import RELU_RIDGE, SpectralFilter
from spectral_tta.network import (
    BN_BATCH,
    BatchNorm2d,
    Model,
    build_model,
    insert_adapter,
)
from spectral_tta.network import fit_pca_from_source

IN_SHAPE = (2, 4, 4)


def small_adapted_model(rng, seed=0, gamma0=0.05):
    model = build_model(seed, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    data = rng.normal(size=(80,) + IN_SHAPE)
    basis = fit_pca_from_source(model, [data], 3, rank=20)
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, np.full(basis.rank, gamma0))
    return insert_adapter(model, 3, basis, filt), basis


def make_batches(rng, n_batches=3, batch=8):
    return [
        (rng.normal(size=(batch,) + IN_SHAPE), rng.integers(0, 3, batch))
        for _ in range(n_batches)
    ]


def errors(rec):
    return [b["error"] for b in rec.batches]


# ---- entropy -------------------------------------------------------------


@pytest.mark.parametrize("c", [2, 4, 10, 100])
def test_entropy_uniform_logits(c):
    logits = np.full((3, c), 1.23)
    assert abs(entropy(logits) - math.log(c)) <= 1e-12


def test_entropy_one_hot_limit():
    logits = np.zeros((2, 5))
    logits[:, 0] = 1e4
    assert entropy(logits) <= 1e-6


def test_entropy_half_half():
    assert abs(entropy(np.array([[0.7, 0.7]])) - math.log(2)) <= 1e-12


def test_entropy_matches_extended_precision_sum(rng):
    from mpmath import mp, mpf, exp as mexp, log as mlog

    mp.dps = 50
    logits = rng.normal(size=(6, 7)) * 3
    total = mpf(0)
    for row in logits:
        zs = [mpf(float(v)) for v in row]
        norm = sum(mexp(z) for z in zs)
        ps = [mexp(z) / norm for z in zs]
        total += -sum(p * mlog(p) for p in ps)
    expected = float(total / len(logits))
    assert abs(entropy(logits) - expected) <= 1e-10


@pytest.mark.parametrize(
    "row, h",
    [([-1e308, 1e308], 0.0), ([-1e308, 1e308, 1e308], math.log(2))],
    ids=["one-class-left", "two-classes-left"],
)
def test_entropy_and_grad_finite_past_the_float_range(row, h):
    # the row's spread overflows float64: the -1e308 class has probability
    # 0 and contributes nothing, where 0 * -inf would give NaN
    logits = np.array([row])
    assert entropy(logits) == pytest.approx(h, abs=1e-15)
    assert np.array_equal(entropy_grad(logits), np.zeros_like(logits))


def test_entropy_rejects_single_class():
    """Both the entropy and its gradient refuse logits that are not (m, C)
    with C >= 2."""
    for fn in (entropy, entropy_grad):
        for shape in [(3, 1), (4,), (2, 3, 4)]:
            with pytest.raises(ContractViolationError, match=r"\(m, C\) with C >= 2"):
                fn(np.ones(shape))


def test_entropy_grad_uniform_is_zero():
    g = entropy_grad(np.full((4, 6), -0.5))
    assert np.abs(g).max() <= 1e-15


def test_entropy_grad_antisymmetric_two_class():
    g = entropy_grad(np.array([[1.3, -1.3]]))
    assert abs(g[0, 0] + g[0, 1]) <= 1e-15


def test_entropy_grad_finite_differences(rng):
    logits = rng.normal(size=(3, 5))
    g = entropy_grad(logits)
    h = 1e-6
    for m in range(3):
        for c in range(5):
            lp = logits.copy()
            lp[m, c] += h
            lm = logits.copy()
            lm[m, c] -= h
            fd = (entropy(lp) - entropy(lm)) / (2 * h)
            assert abs(fd - g[m, c]) <= 1e-6


# ---- adam ------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    cfg = AdaptConfig(learning_rate=0.1)
    state = AdamState.zeros(4)
    params = np.array([1.0, -2.0, 3.0, 0.0])
    out = adam_step(state, params, np.zeros(4), cfg)
    assert np.array_equal(out, params)


def test_adam_first_step_magnitude():
    cfg = AdaptConfig(learning_rate=0.01)
    state = AdamState.zeros(2)
    g = np.array([5.0, -0.3])
    out = adam_step(state, np.zeros(2), g, cfg)
    # first bias-corrected step is ~ -lr * sign(g)
    assert np.allclose(out, -cfg.learning_rate * np.sign(g), rtol=1e-6)


def test_adam_trajectory_matches_scalar_reimplementation(rng):
    cfg = AdaptConfig(learning_rate=0.05)
    state = AdamState.zeros(1)
    p = np.array([0.7])
    # independent scalar Adam
    m = v = 0.0
    ps = 0.7
    for t in range(1, 11):
        g = math.sin(t) * ps  # some state-dependent gradient
        p = adam_step(state, p, np.array([g]), cfg)
        m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
        v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
        mhat = m / (1 - cfg.adam_beta1**t)
        vhat = v / (1 - cfg.adam_beta2**t)
        ps = ps - cfg.learning_rate * mhat / (math.sqrt(vhat) + cfg.adam_eps)
        assert p[0] == pytest.approx(ps, rel=1e-12)
    assert state.timestep == 10


def test_adam_shape_mismatch():
    with pytest.raises(ContractViolationError):
        adam_step(AdamState.zeros(2), np.zeros(2), np.zeros(3), AdaptConfig())


def test_config_validation():
    """The config's adapt rules refuse each bad value, naming its key."""
    cases = [
        ({"steps_per_batch": 0}, "adapt.steps_per_batch:0"),
        ({"protocol": "sometimes"}, "adapt.protocol:'sometimes'"),
        ({"batch_size": 0}, "adapt.batch_size:0"),
        ({"learning_rate": -0.1}, "adapt.learning_rate:-0.1"),
        ({"learning_rate": float("inf")}, "adapt.learning_rate:inf"),
        ({"adam_beta1": 1.0}, "adapt.adam_beta1:1.0"),
        ({"adam_beta1": -0.1}, "adapt.adam_beta1:-0.1"),
        ({"adam_beta2": 1.0}, "adapt.adam_beta2:1.0"),
        ({"adam_eps": 0.0}, "adapt.adam_eps:0.0"),
        ({"adam_eps": float("nan")}, "adapt.adam_eps:nan"),
        ({"adam_eps": float("inf")}, "adapt.adam_eps:inf"),
    ]
    for adapt_values, key in cases:
        with pytest.raises(ConfigError) as info:
            bench.load_config({"adapt": adapt_values})
        assert info.value.keys == [key]
    bench.load_config({"adapt": {"adam_beta1": 0.0, "adam_beta2": 0.0}})


# ---- protocols ---------------------------------------------------------------


def test_episodic_duplicate_batches_identical(rng):
    model, _ = small_adapted_model(rng)
    x = rng.normal(size=(8,) + IN_SHAPE)
    y = rng.integers(0, 3, 8)
    cfg = AdaptConfig(learning_rate=0.2, steps_per_batch=3, batch_size=8)
    rec = run_adaptation(model, [(x, y)] * 4, cfg)
    errs = errors(rec)
    assert len(set(errs)) == 1
    hashes = {b["params_hash"] for b in rec.batches}
    assert len(hashes) == 1


def test_lr_zero_equals_no_adapt(rng):
    model, _ = small_adapted_model(rng, seed=1)
    batches = make_batches(rng)
    cfg = AdaptConfig(learning_rate=0.0, steps_per_batch=2, batch_size=8)
    rec = run_adaptation(model, batches, cfg)
    base = baseline_no_adapt(model, batches)
    assert errors(rec) == errors(base)
    rec_online = run_adaptation(model, batches, dataclasses.replace(cfg, protocol="online"))
    assert errors(rec_online) == errors(base)


def test_online_single_batch_equals_episodic(rng):
    model, _ = small_adapted_model(rng, seed=2)
    batches = make_batches(rng, n_batches=1)
    cfg = AdaptConfig(learning_rate=0.3, steps_per_batch=4, batch_size=8)
    e = run_adaptation(model.clone(), batches, cfg)
    o = run_adaptation(model.clone(), batches, dataclasses.replace(cfg, protocol="online"))
    assert errors(e) == errors(o)
    assert e.batches[0]["entropy_after"] == o.batches[0]["entropy_after"]


@pytest.mark.parametrize("protocol, other", [("online", "episodic"), ("episodic", "online")])
def test_run_adaptation_follows_the_configured_protocol(protocol, other, rng):
    model, _ = small_adapted_model(rng, seed=2)
    batches = make_batches(rng, n_batches=3)
    cfg = AdaptConfig(protocol=protocol, learning_rate=0.3, steps_per_batch=2, batch_size=8)
    got = run_adaptation(model.clone(), batches, cfg)
    assert got.protocol == protocol
    # the two protocols differ on this stream, so the configured one is seen
    other_cfg = dataclasses.replace(cfg, protocol=other)
    assert got.batches != run_adaptation(model.clone(), batches, other_cfg).batches


def test_online_two_batch_hand_trace(rng):
    model, _ = small_adapted_model(rng, seed=3)
    batches = make_batches(rng, n_batches=2)
    cfg = AdaptConfig(protocol="online", learning_rate=0.3, steps_per_batch=1, batch_size=8)
    rec = run_adaptation(model.clone(), batches, cfg)

    # hand-stepped trace of the same protocol
    work = model.clone()
    state = AdamState.zeros(work.adapt_params().size)
    seen = []
    for x, y in batches:
        logits, caches = work.forward(x)
        grads = work.backward_adapt(caches, entropy_grad(logits))
        work.set_adapt_params(adam_step(state, work.adapt_params(), grads, cfg))
        after, _ = work.forward(x)
        seen.append((entropy(after), float(np.mean(after.argmax(1) != y))))
    for got, (h, e) in zip(rec.batches, seen):
        assert got["entropy_after"] == pytest.approx(h, rel=0, abs=0)
        assert got["error"] == e
    # batch 2 really saw the parameters updated on batch 1
    assert rec.batches[0]["params_hash"] != ""
    ep = run_adaptation(model.clone(), batches, dataclasses.replace(cfg, protocol="episodic"))
    assert ep.batches[1]["entropy_after"] != rec.batches[1]["entropy_after"]


def test_episodic_permutation_invariance(rng):
    model, _ = small_adapted_model(rng, seed=4)
    batches = make_batches(rng, n_batches=4)
    cfg = AdaptConfig(learning_rate=0.2, steps_per_batch=2, batch_size=8)
    a = run_adaptation(model.clone(), batches, cfg)
    b = run_adaptation(model.clone(), batches[::-1], cfg)
    assert sorted(errors(a)) == sorted(errors(b))


def test_empty_stream_rejected(rng):
    model, _ = small_adapted_model(rng, seed=5)
    with pytest.raises(ContractViolationError):
        run_adaptation(model, [], AdaptConfig())
    with pytest.raises(ContractViolationError):
        baseline_no_adapt(model, [])


@pytest.mark.parametrize("n_inputs, n_labels", [(0, 0), (8, 5), (5, 8)])
@pytest.mark.parametrize("method", bench.METHODS)
def test_a_batch_without_rows_or_one_label_per_input_is_refused_before_any_forward(
    method, n_inputs, n_labels, monkeypatch, tiny_config, tiny_model, tiny_basis, tiny_test_set
):
    x, y = tiny_test_set
    batches = bench.make_batches(x, y, 8)[:2] + [(x[:n_inputs], y[:n_labels])]
    monkeypatch.setattr(Model, "forward", lambda *a, **k: pytest.fail("a forward ran first"))
    # the stream starts at batch 10, so the bad batch is batch 12
    refusal = f"batch 12 has {n_inputs} inputs and {n_labels} labels"
    with pytest.raises(ContractViolationError, match=refusal):
        bench._evaluate_cell(tiny_model, tiny_basis, tiny_config, method, batches, 10)


def test_gradient_descent_step_does_not_increase_entropy(rng):
    model, _ = small_adapted_model(rng, seed=6)
    batches = make_batches(rng, n_batches=3)
    cfg = AdaptConfig(learning_rate=1e-4, steps_per_batch=1, batch_size=8)
    rec = run_adaptation(model, batches, cfg)
    for b in rec.batches:
        assert b["entropy_after"] <= b["entropy_before"] + 1e-9


# ---- baselines -----------------------------------------------------------------


def test_no_adapt_deterministic(rng):
    model, _ = small_adapted_model(rng, seed=7)
    batches = make_batches(rng)
    a = baseline_no_adapt(model, batches)
    b = baseline_no_adapt(model, batches)
    assert errors(a) == errors(b)
    # matches a plain forward pass
    x, y = batches[0]
    logits, _ = model.forward(x)
    assert a.batches[0]["error"] == float(np.mean(logits.argmax(1) != y))


def test_bn_stats_equals_no_adapt_on_matched_batch(rng):
    model = build_model(8, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    x = rng.normal(size=(16,) + IN_SHAPE)
    y = rng.integers(0, 3, 16)
    z = x
    for layer in model.layers:
        if isinstance(layer, BatchNorm2d):
            layer.running_mean = z.mean(axis=(0, 2, 3))
            layer.running_var = z.var(axis=(0, 2, 3))
        z, _ = layer.forward(z)
    a = baseline_no_adapt(model, [(x, y)])
    b = baseline_bn_stats(model, [(x, y)])
    assert abs(a.batches[0]["entropy_before"] - b.batches[0]["entropy_before"]) <= 1e-8
    assert errors(a) == errors(b)


def test_bn_stats_reacts_to_shift_and_freezes_theta(rng):
    model = build_model(9, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    before = model.weight_hash()
    x = rng.normal(size=(16,) + IN_SHAPE)
    y = rng.integers(0, 3, 16)
    shifted = x + 2.5
    base = baseline_no_adapt(model, [(shifted, y)])
    bn = baseline_bn_stats(model, [(shifted, y)])
    # recomputed statistics change the predictions under a shift
    assert bn.batches[0]["entropy_before"] != base.batches[0]["entropy_before"]
    assert model.weight_hash() == before


def test_bn_modulators_lr_zero_equals_bn_stats(rng):
    model = build_model(10, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    batches = make_batches(rng)
    cfg = AdaptConfig(learning_rate=0.0, steps_per_batch=2, batch_size=8)
    t = baseline_bn_modulators(model, batches, cfg)
    b = baseline_bn_stats(model, batches)
    assert errors(t) == errors(b)


def test_bn_modulators_gradient_check_and_theta_freeze(rng):
    model = build_model(11, input_shape=IN_SHAPE, conv_channels=(3, 3), n_classes=3)
    before = model.weight_hash()
    work = model.clone()
    work.set_bn_mode(BN_BATCH)
    work.adapt_target = BatchNorm2d
    x = rng.normal(size=(8,) + IN_SHAPE)
    logits, caches = work.forward(x)
    analytic = work.backward_adapt(caches, entropy_grad(logits))
    params = work.adapt_params()
    h = 1e-5
    for i in range(len(params)):
        pp = params.copy()
        pp[i] += h
        work.set_adapt_params(pp)
        hp = entropy(work.forward(x)[0])
        pm = params.copy()
        pm[i] -= h
        work.set_adapt_params(pm)
        hm = entropy(work.forward(x)[0])
        work.set_adapt_params(params)
        fd = (hp - hm) / (2 * h)
        assert abs(fd - analytic[i]) / max(abs(fd), 1e-6) <= 1e-4
    cfg = AdaptConfig(learning_rate=0.05, steps_per_batch=3, batch_size=8)
    baseline_bn_modulators(model, make_batches(rng), cfg)
    assert model.weight_hash() == before  # the baseline adapts a clone


def test_parameter_count_accounting(rng):
    model, basis = small_adapted_model(rng, seed=12)
    assert model.adapt_params().size == basis.rank
    modulated = model.clone()
    modulated.adapt_target = BatchNorm2d
    bn_channels = sum(
        len(l.scale) for l in modulated.layers if isinstance(l, BatchNorm2d)
    )
    assert modulated.adapt_params().size == 2 * bn_channels


def test_run_record_serialization(tmp_path, rng):
    model, _ = small_adapted_model(rng, seed=13)
    rec = baseline_no_adapt(model, make_batches(rng))
    path = tmp_path / "rec.jsonl"
    rec.to_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    import json

    row = json.loads(lines[0])
    assert row["method"] == "no-adapt"
    assert 0.0 <= row["error"] <= 1.0


def test_run_record_rejects_bad_error():
    rec = adapt.RunRecord(method="x", protocol="none")
    with pytest.raises(ContractViolationError):
        rec.add(0, 4, 1.5, 0.0, 0.0)


# ---- the hot path against the full-forward/full-backward loop -----------


def reference_protocol(model, batches, cfg, method, episodic):
    """The protocol without prefix reuse, the reference for
    adapt.run_adaptation: every forward runs the whole stack and every
    backward runs down to layer 0."""
    kind = model.adapt_target

    def full_backward(caches, gloss):
        chunks = {}
        g = gloss
        for idx in range(len(model.layers) - 1, -1, -1):
            layer = model.layers[idx]
            need = isinstance(layer, kind)
            g, pg = layer.backward(caches[idx], g, need_param_grads=need)
            if need:
                chunks[idx] = [pg[name] for name in sorted(pg)]  # gamma | scale, shift
        return np.concatenate([c for idx in sorted(chunks) for c in chunks[idx]])

    params0 = model.adapt_params()
    record = adapt.RunRecord(method=method, protocol="episodic" if episodic else "online")
    state = AdamState.zeros(len(params0))
    for b_idx, (x, y) in enumerate(batches):
        if episodic:
            model.set_adapt_params(params0)
            state = AdamState.zeros(len(params0))
        logits, caches = model.forward(x)
        h_before = entropy(logits)
        for step in range(cfg.steps_per_batch):
            if step > 0:
                logits, caches = model.forward(x)
            grads = full_backward(caches, entropy_grad(logits))
            model.set_adapt_params(adam_step(state, model.adapt_params(), grads, cfg))
        logits_after, _ = model.forward(x)
        record.add(
            b_idx,
            len(y),
            adapt._batch_error(logits_after, y),
            h_before,
            entropy(logits_after),
            adapt._params_hash(model.adapt_params()),
        )
    if episodic:
        model.set_adapt_params(params0)
    return record


def tiny_work_model(method, cfg, model, basis):
    if method == "bn-modulators":
        work = model.clone()
        work.set_bn_mode(BN_BATCH)
        work.adapt_target = BatchNorm2d
        return work
    return bench._spectral_model(model.clone(), cfg, basis, method)


@pytest.mark.parametrize("protocol", ["episodic", "online"])
@pytest.mark.parametrize("method", ["spectral-relu", "spectral-exp", "bn-modulators"])
def test_protocol_records_match_full_forward_reference(
    method, protocol, tiny_config, tiny_model, tiny_basis, tiny_test_set
):
    x, y = tiny_test_set
    cx = bench.corrupt(x, bench.CorruptionSpec("gaussian-noise", 5, seed=7))
    batches = bench.make_batches(cx, y, tiny_config["adapt"]["batch_size"])
    cfg = dataclasses.replace(bench._adapt_config(tiny_config), protocol=protocol)
    episodic = protocol == "episodic"

    ref_model = tiny_work_model(method, tiny_config, tiny_model, tiny_basis)
    expected = reference_protocol(ref_model, batches, cfg, method, episodic)
    work = tiny_work_model(method, tiny_config, tiny_model, tiny_basis)
    record = adapt.run_adaptation(work, batches, cfg, method=method)

    assert len(record.batches) == len(batches) > 1
    assert record.batches == expected.batches
    assert np.array_equal(work.adapt_params(), ref_model.adapt_params())
    # the filter moved, so the comparison covers real steps
    assert len({b["params_hash"] for b in record.batches}) > 1


@pytest.mark.parametrize("protocol", ["episodic", "online"])
@pytest.mark.parametrize("method", ["spectral-relu", "bn-modulators"])
def test_input_half_of_the_lowest_adaptation_layer_runs_once_per_batch(
    method, protocol, monkeypatch, tiny_config, tiny_model, tiny_basis, tiny_test_set
):
    x, y = tiny_test_set
    batches = bench.make_batches(x, y, tiny_config["adapt"]["batch_size"])
    cfg = dataclasses.replace(bench._adapt_config(tiny_config), protocol=protocol)
    work = tiny_work_model(method, tiny_config, tiny_model, tiny_basis)
    lowest = work.layers[work.adapt_start()]
    kind = type(lowest)
    calls = []  # (frozen argument, returned cache) of each forward of the lowest layer
    forward = kind.forward

    def counted_forward(layer, h, frozen=None):
        out, cache = forward(layer, h, frozen)
        if layer is lowest:
            calls.append((frozen, cache))
        return out, cache

    def input_half(cache):  # the normalisation, or the adapter's projection
        return cache[0] if kind is BatchNorm2d else cache[1].scores

    monkeypatch.setattr(kind, "forward", counted_forward)
    adapt.run_adaptation(work, batches, cfg, method=method)
    per_batch = cfg.steps_per_batch + 1
    assert len(calls) == len(batches) * per_batch and len(batches) > 1
    for b in range(len(batches)):
        batch_calls = calls[b * per_batch : (b + 1) * per_batch]
        # the batch's first forward computes the cache; each step reuses the
        # cache of the forward before it, whose input half is the first's
        (none, first), *steps = batch_calls
        assert none is None
        assert all(frozen is prev for (frozen, _), (_, prev) in zip(steps, batch_calls))
        assert all(input_half(cache) is input_half(first) for _, cache in steps)
    assert len({id(input_half(cache)) for _, cache in calls}) == len(batches)
