"""Workloads, timed passes and correctness checks of the benchmark.

The package is driven only through ``bench``'s public API:
``load_config``, ``DatasetSpec``, ``gen_dataset``, ``train_from_config``,
``fit_basis_from_config`` and ``run_benchmark``. Every workload uses the
desk-scale default config (8x8x3 inputs, conv channels [8, 8], adapter
at index 3, p = 512, rank 64, 1000 test samples) with the seed given on
the command line, and runs single-process and closed-loop.

A run is a set-up followed by one timed pass. The set-up trains the model
and fits the PCA basis the workload adapts with. The timed pass is made
of units, each one public call timed on its own:

* adapt: one entropy-trained method on one corruption, all severities;
  the pass runs every (method, corruption) unit once;
* infer: no-adapt and bn-stats on one corruption, all severities;
* train and fit (traced pass only): ``train_from_config`` for
  ``TRAIN_UNIT_EPOCHS`` epochs, and ``fit_basis_from_config`` on two fit
  batches (one initial decomposition and one incremental update).

The infer units are swept again until they have run for half of the
requested seconds, interleaved with the adapt units in proportion, so
both metrics sample the whole pass rather than one stretch of it. On a
shared 2-core VM the speed of a fixed numpy kernel drifted by 10-20%
within seconds, and a single long window per metric measured that drift
as well as the code.

Training and the fit have no end-to-end throughput of their own. Over ten
seeds, the IQR/median of the 4-epoch train units reached 0.24 and that of
the 512-row fit 0.32, against a bound of at most 0.25. Both are timed
inside ``setup_s`` and traced per layer.
"""

import copy
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np
from spectral_tta import bench

from tracer import Tracer

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

INFER_METHODS = ("no-adapt", "bn-stats")
ADAPT_METHODS = ("bn-modulators", "spectral-relu", "spectral-exp")
METHODS = INFER_METHODS + ADAPT_METHODS

TRAIN_UNIT_EPOCHS = 4


# workload name -> config override merged over the defaults
WORKLOADS = {
    # the paper's headline table: severity 5, all corruptions and methods,
    # episodic, batch 64, 10 steps per batch
    "grid-episodic": {"severities": [5]},
    # the same layers used differently: online, batch 16, one step per
    # batch, severities 1-5
    "stream-online": {"adapt": {"protocol": "online", "batch_size": 16, "steps_per_batch": 1}},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def make_config(name: str, seed: int, base: dict | None = None) -> dict:
    """The workload's config; ``base`` (e.g. a tiny test scale) goes underneath."""
    override = _merge(base or {}, WORKLOADS[name])
    override["seed"] = seed
    return bench.load_config(override)


def config_digest(cfg: dict) -> str:
    """Digest of everything in the config but the seed."""
    rest = {key: value for key, value in cfg.items() if key != "seed"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()[:16]


def basis_digest(basis) -> str:
    h = hashlib.sha256()
    for arr in (basis.mean, basis.components, basis.singular_values):
        h.update(arr.tobytes())
    return h.hexdigest()


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, cfg: dict, expected: dict | None):
        self.cfg = cfg
        self.expected = expected       # reference values for this seed, if recorded
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cells = {}                # (method, corruption) -> errors by severity
        self.setup_s = None
        self.model = self.basis = None
        self.weight_hash = self.basis_digest = None
        self.train_cfg = _merge(cfg, {"model": {"train_epochs": TRAIN_UNIT_EPOCHS}})
        self.fit_cfg = _merge(cfg, {"pca": {"fit_samples": 2 * cfg["pca"]["fit_batch"]}})

    # ---- checks --------------------------------------------------------

    def _problem(self, ops: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def _record_cells(self, table, methods, corruptions) -> None:
        """Check each cell error and that a repeat reproduces it exactly."""
        severities = self.cfg["severities"]
        for method in methods:
            for corruption in corruptions:
                errs = [table.errors[(method, corruption, s)] for s in severities]
                first = self.cells.setdefault((method, corruption), errs)
                if not all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in errs):
                    self._problem(len(errs), f"{method} on {corruption}: error outside [0, 1]")
                elif errs != first:
                    self._problem(len(errs), f"{method} on {corruption}: {errs} != first {first}")

    def errors(self) -> dict:
        """Mean error per method over the workload's cells, in table order
        (the reduction ErrorTable.severity_mean uses, so a single-severity
        workload reproduces the table exactly)."""
        out = {}
        for method in METHODS:
            rows = [self.cells.get((method, c)) for c in self.cfg["corruptions"]]
            if None not in rows:
                out[method] = float(np.mean([e for row in rows for e in row]))
        return out

    def check_reference(self) -> None:
        """Compare the run's artifacts and errors with the recorded ones."""
        if self.expected is None:
            return
        for key in ("weight_hash", "basis_digest"):
            if getattr(self, key) != self.expected[key]:
                self._problem(self.attempted, f"{key} {getattr(self, key)} != recorded")
        cells = len(self.cfg["corruptions"]) * len(self.cfg["severities"])
        for method, err in self.errors().items():
            want = self.expected["errors"][method]
            if repr(err) != want:
                self._problem(cells, f"{method}: error {err!r} != recorded {want}")

    # ---- work ----------------------------------------------------------

    def _timed(self, ops: int, label: str, call):
        """(seconds, result) of one public call; (None, None) if it raised."""
        self.attempted += ops
        try:
            start = time.perf_counter()
            result = call()
            return time.perf_counter() - start, result
        except Exception:  # a failed unit is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self._problem(ops, f"{label} raised")
            return None, None

    def setup(self) -> None:
        start = time.perf_counter()
        self.model = bench.train_from_config(self.cfg)
        self.basis = bench.fit_basis_from_config(self.cfg, self.model)
        self.setup_s = time.perf_counter() - start
        self.weight_hash = self.model.weight_hash()
        self.basis_digest = basis_digest(self.basis)

    def adapt_unit(self, method: str, corruption: str):
        sub = dict(self.cfg, methods=[method], corruptions=[corruption])
        seconds, out = self._timed(
            len(self.cfg["severities"]),
            f"{method} on {corruption}",
            lambda: bench.run_benchmark(sub, self.model, self.basis),
        )
        if seconds is not None:
            self._record_cells(out[0], [method], [corruption])
        return seconds

    def infer_unit(self, corruption: str):
        sub = dict(self.cfg, methods=list(INFER_METHODS), corruptions=[corruption])
        seconds, out = self._timed(
            len(INFER_METHODS) * len(self.cfg["severities"]),
            f"inference on {corruption}",
            lambda: bench.run_benchmark(sub, self.model, self.basis),
        )
        if seconds is not None:
            self._record_cells(out[0], INFER_METHODS, [corruption])
        return seconds

    def train_unit(self):
        return self._timed(1, "train", lambda: bench.train_from_config(self.train_cfg))[0]

    def fit_unit(self):
        return self._timed(
            1, "fit-pca", lambda: bench.fit_basis_from_config(self.fit_cfg, self.model)
        )[0]

    def timed_pass(self, infer_seconds: float, traced: bool = False) -> dict:
        """Sweep the adapt and infer units once, and repeat infer sweeps until
        they have run ``infer_seconds``; ``traced`` adds one train and one
        fit unit. Kinds are interleaved by progress. Returns each kind's
        unit times in call order, None for a unit that failed."""
        corruptions = self.cfg["corruptions"]
        units = {
            "adapt": [partial(self.adapt_unit, m, c) for m in ADAPT_METHODS for c in corruptions],
            "infer": [partial(self.infer_unit, c) for c in corruptions],
        }
        if traced:
            units.update(train=[self.train_unit], fit=[self.fit_unit])
        times = {kind: [] for kind in units}

        def progress(kind):
            done = times[kind]
            swept = len(done) / len(units[kind])
            if kind != "infer" or infer_seconds <= 0:
                return swept
            if None in done:
                return math.inf        # repeats stop at the first failure
            return min(swept, sum(done) / infer_seconds)

        while True:
            kind = min(units, key=progress)
            if progress(kind) >= 1.0:
                break
            done = times[kind]
            done.append(units[kind][len(done) % len(units[kind])]())
        if self.model.weight_hash() != self.weight_hash:
            self._problem(self.attempted, "backbone weights changed during the timed work")
        return times

    # ---- metrics -------------------------------------------------------

    def sweep_seconds(self, times: dict, kind: str):
        """Time of one sweep of ``kind`` (adapt or infer) from the median of
        units that do the same work (per method for adapt), or None if a
        unit failed."""
        done = times[kind]
        if not done or None in done:
            return None
        n = len(self.cfg["corruptions"])
        if kind == "adapt":
            per_method = [done[i * n : (i + 1) * n] for i in range(len(ADAPT_METHODS))]
            return sum(n * statistics.median(group) for group in per_method)
        return n * statistics.median(done)

    def end_to_end(self, times: dict) -> dict:
        """The end-to-end metrics; a kind whose units failed leaves its metric out."""
        cfg = self.cfg
        samples = len(cfg["corruptions"]) * len(cfg["severities"]) * cfg["dataset"]["n_test"]
        work = {
            "adapt_samples_per_s": ("adapt", len(ADAPT_METHODS) * samples),
            "infer_samples_per_s": ("infer", len(INFER_METHODS) * samples),
        }
        out = {"setup_s": self.setup_s}
        for name, (kind, amount) in work.items():
            seconds = self.sweep_seconds(times, kind)
            if seconds is not None:
                out[name] = amount / seconds
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out


def load_expected(name: str, cfg: dict, seed: int):
    """Recorded reference values for (workload, config, seed), or None."""
    if not EXPECTED_PATH.exists():
        return None
    entry = json.loads(EXPECTED_PATH.read_text()).get(name)
    if entry is None or entry["config"] != config_digest(cfg):
        return None
    return entry["seeds"].get(str(seed))


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    base: dict | None = None,
    check_record: bool = True,
) -> dict:
    """Run one workload; returns the result fields and the raw metric values.
    ``check_record=False`` skips the comparison with expected.json, for
    re-recording a reference."""
    cfg = make_config(name, seed, base)
    expected = load_expected(name, cfg, seed) if check_record else None
    bench_run = Run(cfg, expected)
    bench_run.setup()
    times = bench_run.timed_pass(seconds / 2)
    if trace:
        # one sweep of each kind, so counts repeat exactly; every cell of
        # the traced pass must reproduce the untraced pass's error
        tracer = Tracer()
        with tracer.installed():
            traced = bench_run.timed_pass(0.0, traced=True)
        same_work = [
            [bench_run.sweep_seconds(t, kind) for kind in ("adapt", "infer")]
            for t in (traced, times)
        ]
        overhead = None
        if None not in same_work[0] + same_work[1]:
            overhead = sum(same_work[0]) / sum(same_work[1]) - 1.0
        traced_seconds = sum(t for done in traced.values() for t in done if t is not None)
        metrics = tracer.metrics(traced_seconds, overhead)
    else:
        metrics = bench_run.end_to_end(times)
    bench_run.check_reference()
    errors = bench_run.errors()
    return {
        "correct": bench_run.failed == 0 and not bench_run.problems,
        "attempted": bench_run.attempted,
        "failed": bench_run.failed,
        "metrics": metrics,
        "errors": errors,
        "reference": {
            "config": config_digest(cfg),
            "recorded": expected is not None,
            "weight_hash": bench_run.weight_hash,
            "basis_digest": bench_run.basis_digest,
            "errors": {m: repr(e) for m, e in errors.items()},
        },
        "units": {kind: len(t) for kind, t in times.items()},
    }
