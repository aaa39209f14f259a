"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload grid-episodic --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. BLAS and OpenMP are pinned
to one thread before numpy is imported. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. Earlier lines give the
environment, the errors the run produced and the metrics as a table.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # write nothing into the checkout

import argparse
import hashlib
import json
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def import_package():
    """Import spectral_tta from this checkout's src/, or explain why not."""
    sys.path.insert(0, str(SRC))
    try:
        import spectral_tta
    except ImportError as exc:
        raise SystemExit(f"cannot import spectral_tta from {SRC}: {exc}")
    where = Path(spectral_tta.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"spectral_tta was imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    import_package()
    import harness

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("reference " + json.dumps(result["reference"], sort_keys=True))
    for method, err in result["errors"].items():
        print(f"err.{method:<24} {err!r}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted} and result["correct"]:
        missing = sorted({m["name"] for m in wanted} ^ set(got))
        raise SystemExit(f"metrics do not match BENCHMARK.json: {missing}")
    metrics = {
        m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in got
    }
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"units {result['units']}, attempted {result['attempted']}, failed {result['failed']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
