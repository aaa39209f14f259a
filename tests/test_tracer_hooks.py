"""The benchmark's tracer (``perfbench/tracer.py``) wraps package names from
outside: Model methods, layer classes' forward/backward and module-level
functions. A refactor that drops or renames one of them, or gives a layer
a signature the wrappers cannot pass through, must fail here, not only in
a traced benchmark run."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from spectral_tta import adapt, bench, linalg, network, pca

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _owners():
    """Every object whose attributes the tracer may replace."""
    classes = [value for value in vars(network).values() if isinstance(value, type)]
    return (*classes, adapt, bench, linalg, network, pca)


def _attributes():
    return {(id(owner), name): value for owner in _owners() for name, value in vars(owner).items()}


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_on_the_package_and_restores_it(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    before = _attributes()
    with tracer.Tracer().installed():
        during = _attributes()
    replaced = {key for key, value in before.items() if during[key] is not value}
    model = id(network.Model)
    assert {(model, method) for method in tracer._MODEL_METHODS} <= replaced
    assert {(id(module), attr) for module, attr, _ in tracer._FUNCTIONS} <= replaced
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _work_model(method, cfg, model, basis):
    if method == "bn-modulators":
        work = model.clone()
        work.set_bn_mode(network.BN_BATCH)
        work.adapt_target = network.ADAPT_BN
        return work
    return bench._spectral_model(model.clone(), cfg, basis, method)


@pytest.mark.parametrize("protocol", ["episodic", "online"])
@pytest.mark.parametrize("method, span", [("spectral-relu", "adapter"), ("bn-modulators", "bn0")])
def test_traced_adaptation_matches_untraced_and_counts_layer_calls(
    monkeypatch, tiny_config, tiny_model, tiny_basis, tiny_test_set, method, span, protocol
):
    tracer_module = _load_tracer(monkeypatch)
    x, y = tiny_test_set
    batches = bench.make_batches(x, y, tiny_config["adapt"]["batch_size"])
    cfg = dataclasses.replace(bench._adapt_config(tiny_config), protocol=protocol)
    expected = adapt.run_adaptation(
        _work_model(method, tiny_config, tiny_model, tiny_basis), batches, cfg, method=method
    )
    tracer = tracer_module.Tracer()
    work = _work_model(method, tiny_config, tiny_model, tiny_basis)
    with tracer.installed():
        record = adapt.run_adaptation(work, batches, cfg, method=method)
    assert record.batches == expected.batches
    # the adaptation layer runs its whole forward, input-only part included,
    # under its own span: once per batch to start, then once per step
    assert tracer.calls[f"network.{span}.fwd"] == len(batches) * (cfg.steps_per_batch + 1)
    assert tracer.calls["network.unkeyed.fwd"] == 0
    assert tracer.adapt_batches == len(batches) > 1
    # the frozen prefix below the adaptation layer runs forward once per
    # batch, on that batch, and never backward
    assert tracer.prefix_fwd == len(batches)
    assert tracer.prefix_bwd == 0
    assert tracer.prefix_distinct == len(batches)
