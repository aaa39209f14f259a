"""Fast smoke test of the benchmark harness at a tiny config.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs one untraced and one traced pass at a scale that
takes about a second, so a broken harness shows before a real run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from spectral_tta import adapt, bench, network  # noqa: E402
from tracer import REPORTED_LAYERS, Tracer  # noqa: E402

# the scale of tests/conftest.py's TINY_OVERRIDE
TINY = {
    "dataset": {"n_train": 240, "n_test": 120, "channels": 2, "height": 4, "width": 4},
    "model": {"conv_channels": [3, 3], "train_epochs": 12, "insert_index": 3},
    "pca": {"rank": 24, "fit_samples": 128, "fit_batch": 64},
    "adapt": {"batch_size": 40, "learning_rate": 0.25, "steps_per_batch": 5},
}

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert set(harness.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = harness.run(workload, seed=0, seconds=0, trace=False, base=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names("end_to_end")
    assert all(v > 0 for v in result["metrics"].values())
    assert set(result["errors"]) == set(harness.METHODS)


@pytest.mark.parametrize(
    "workload, fwd, bwd",
    [("grid-episodic", 6, 5), ("stream-online", 2, 1)],
)
def test_traced_run_reports_per_layer_metrics(workload, fwd, bwd):
    result = harness.run(workload, seed=0, seconds=0, trace=True, base=TINY)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == names("per_layer")
    # steps + 1 forwards and steps backwards per batch, one distinct input
    assert metrics["network.prefix.fwd_per_batch"] == fwd
    assert metrics["network.prefix.bwd_per_batch"] == bwd
    assert metrics["network.prefix.useful_ratio"] == pytest.approx(1 / fwd)
    assert metrics["adapt.steps"] == bwd * metrics["adapt.batches"]
    assert metrics["filters.apply_filter_backward.calls"] == metrics["network.adapter.bwd_calls"]
    # one fit unit: an initial decomposition and one incremental update
    assert metrics["linalg.svd.calls"] == metrics["pca.fit_incremental.batches"] == 2
    assert metrics["network.backward_all.self_ms"] > 0  # one train unit
    # the tracer's own time is bookkeeping, not the package's self time
    assert metrics["trace.bookkeeping_ms"] > 0
    layer_fwd_ms = sum(metrics[f"network.{layer}.fwd_ms"] for layer in REPORTED_LAYERS)
    assert metrics["network.model_forward.self_ms"] < 0.15 * layer_fwd_ms


def test_tracer_restores_the_package():
    before = (network.Conv2d.forward, network.Model.forward, network.apply_filter,
              adapt.adam_step, bench.run_adaptation)
    with Tracer().installed():
        assert network.Conv2d.forward is not before[0]
    after = (network.Conv2d.forward, network.Model.forward, network.apply_filter,
             adapt.adam_step, bench.run_adaptation)
    assert after == before


def test_a_result_that_differs_from_the_record_fails_the_run(monkeypatch):
    recorded = {
        "weight_hash": "0" * 64,
        "basis_digest": "0" * 64,
        "errors": {m: "0.5" for m in harness.METHODS},
    }
    monkeypatch.setattr(harness, "load_expected", lambda *args: recorded)
    result = harness.run("grid-episodic", seed=0, seconds=0, trace=False, base=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_seed_0_grid_reference_is_the_criterion_7_row():
    configs = [harness.make_config("grid-episodic", seed) for seed in (0, 1)]
    assert harness.config_digest(configs[0]) == harness.config_digest(configs[1])
    recorded = harness.load_expected("grid-episodic", configs[0], 0)
    assert recorded["errors"] == {
        "no-adapt": "0.2084",
        "bn-stats": "0.0402",
        "bn-modulators": "0.0366",
        "spectral-relu": "0.0786",
        "spectral-exp": "0.0814",
    }
