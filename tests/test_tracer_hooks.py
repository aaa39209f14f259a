"""The benchmark's tracer (``perfbench/tracer.py``) wraps package names from
outside: Model methods, layer classes' forward/backward and module-level
functions. A refactor that drops or renames one of them must fail here,
not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from spectral_tta import adapt, bench, linalg, network, pca

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _owners():
    """Every object whose attributes the tracer may replace."""
    classes = [value for value in vars(network).values() if isinstance(value, type)]
    return (*classes, adapt, bench, linalg, network, pca)


def _attributes():
    return {(id(owner), name): value for owner in _owners() for name, value in vars(owner).items()}


def test_tracer_installs_on_the_package_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

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
