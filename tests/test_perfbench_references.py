"""The benchmark (``perfbench/run.py``) compares a run's weight hash, basis
digest and seed errors with ``perfbench/expected.json`` only where the
recorded config digest equals the workload's. A change to
``bench.DEFAULT_CONFIG``, even one new key, moves that digest; the run then
reports ``"recorded": false`` and compares nothing, so it must fail here."""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_workload_and_seed_finds_its_recorded_reference(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports tracer by its bare name
    spec = importlib.util.spec_from_file_location("perfbench_harness", PERFBENCH / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    recorded = json.loads(harness.EXPECTED_PATH.read_text())
    assert set(recorded) == set(harness.WORKLOADS)
    for name, entry in recorded.items():
        for seed in map(int, entry["seeds"]):
            cfg = harness.make_config(name, seed)
            found = harness.load_expected(name, cfg, seed)
            assert found is not None, (
                f"{name} seed {seed}: config digest {harness.config_digest(cfg)}, "
                f"recorded {entry['config']}"
            )
