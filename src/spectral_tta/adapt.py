"""Entropy objective, Adam, and the test-time adaptation protocols.

The episodic protocol resets the adaptation parameters (and optimizer
moments) before every batch; the online protocol lets them evolve over a
whole corruption run. Baselines: plain inference, batch-norm statistic
recomputation, and entropy-trained batch-norm modulators.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .network import BN_BATCH, BatchNorm2d, Model, log_softmax

RECORD_FORMAT_VERSION = 1


@dataclass
class AdaptConfig:
    """The adaptation settings. These defaults are the ``adapt`` section of
    ``bench.DEFAULT_CONFIG``, whose ``load_config`` checks each value."""

    protocol: str = "episodic"
    learning_rate: float = 0.25
    steps_per_batch: int = 10
    batch_size: int = 64
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    timestep: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def _softmax(logits: np.ndarray):
    """``(p, z, lse)`` of (m, C >= 2) logits as from ``log_softmax``, but with
    ``z`` read as 0 where ``p`` is 0 (past the float64 range): no ``0 * -inf``."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ContractViolationError("logits must be (m, C) with C >= 2")
    with np.errstate(over="ignore"):
        z, lse = log_softmax(logits)
    p = np.exp(z - lse)
    return p, np.where(p > 0, z, 0.0), lse


def entropy(logits: np.ndarray) -> float:
    """Mean Shannon entropy (natural log) of softmax(logits) per row."""
    p, z, lse = _softmax(logits)
    return float((lse[:, 0] - np.sum(p * z, axis=1)).mean())


def entropy_grad(logits: np.ndarray) -> np.ndarray:
    """Gradient of :func:`entropy` with respect to the logits."""
    p, z, _ = _softmax(logits)
    zbar = np.sum(p * z, axis=1, keepdims=True)
    return -p * (z - zbar) / len(p)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray, cfg: AdaptConfig
) -> np.ndarray:
    """One Adam step; mutates ``state``, returns the new parameters."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ContractViolationError(
            f"params shape {params.shape} != grads shape {grads.shape}"
        )
    state.timestep += 1
    t = state.timestep
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    state.first_moment = b1 * state.first_moment + (1 - b1) * grads
    state.second_moment = b2 * state.second_moment + (1 - b2) * grads**2
    mhat = state.first_moment / (1 - b1**t)
    vhat = state.second_moment / (1 - b2**t)
    return params - cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_eps)


def _params_hash(vec: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vec).tobytes()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Per-batch log of one adaptation (or inference) session."""

    method: str
    protocol: str
    batches: list = field(default_factory=list)

    def add(self, index, n, error, entropy_before, entropy_after, params_hash=""):
        if not 0.0 <= error <= 1.0:
            raise ContractViolationError(f"error {error} outside [0, 1]")
        self.batches.append(
            {
                "batch": index,
                "n": n,
                "error": error,
                "entropy_before": entropy_before,
                "entropy_after": entropy_after,
                "params_hash": params_hash,
            }
        )

    def mean_error(self) -> float:
        # weighted by batch size so tail batches count per-sample
        total = sum(b["n"] for b in self.batches)
        wrong = sum(b["error"] * b["n"] for b in self.batches)
        return wrong / total

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for b in self.batches:
                row = {
                    "version": RECORD_FORMAT_VERSION,
                    "method": self.method,
                    "protocol": self.protocol,
                    **b,
                }
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _batch_error(logits: np.ndarray, labels: np.ndarray) -> float:
    wrong = int(np.sum(logits.argmax(axis=1) != labels))
    return wrong / len(labels)


def _check_batches(test_batches, first: int):
    """The stream as a list, refused before any work if it is empty or a
    batch has no inputs or not one label per input."""
    batches = list(test_batches)
    if not batches:
        raise ContractViolationError("empty batch stream")
    for b_idx, (x, y) in enumerate(batches, first):
        if len(x) == 0 or len(x) != len(y):
            raise ContractViolationError(f"batch {b_idx} has {len(x)} inputs and {len(y)} labels")
    return batches


def _diverged(method: str, b_idx: int, what: str) -> NumericalFailureError:
    return NumericalFailureError(f"{method} adaptation diverged on batch {b_idx}: {what}")


def _check_first_logits(logits, method: str, b_idx: int) -> None:
    """Refuse a batch's non-finite first logits: no entropy or step is made
    from them."""
    if not np.all(np.isfinite(logits)):
        raise NumericalFailureError(f"{method} gave non-finite logits on batch {b_idx}")


def run_adaptation(
    model: Model, test_batches, cfg: AdaptConfig, method: str = "adapt", first: int = 0
) -> RunRecord:
    """Adapt on each batch and evaluate it, in the protocol that
    ``cfg.protocol`` names: ``episodic`` resets the parameters and the
    optimizer before every batch, ``online`` carries them across the
    stream.

    ``first`` is the index of the first batch in its whole stream: the
    records and a divergence message number the batches from it, so an
    episodic stream run in parts gives the records of the whole."""
    batches = _check_batches(test_batches, first)
    episodic = cfg.protocol == "episodic"
    params0 = params = model.adapt_params()
    record = RunRecord(method=method, protocol=cfg.protocol)
    state = AdamState.zeros(params0.size)
    for b_idx, (x, y) in enumerate(batches, first):
        if episodic:
            params, state = params0, AdamState.zeros(params0.size)
            model.set_adapt_params(params0)
        # the frozen layers run once per batch: each step's forward resumes
        # from the previous forward's caches, which its backward consumed
        logits, caches = model.forward(x)
        _check_first_logits(logits, method, b_idx)
        h_before = entropy(logits)
        for step in range(cfg.steps_per_batch):
            grads = model.backward_adapt(caches, entropy_grad(logits))
            params = adam_step(state, params, grads, cfg)
            if not np.all(np.isfinite(params)):
                raise _diverged(method, b_idx, f"non-finite parameters after step {step + 1}")
            model.set_adapt_params(params)
            logits, caches = model.forward(x, frozen=caches)
        del caches  # no reader: the next batch's forward makes its own
        if not np.all(np.isfinite(logits)):
            raise _diverged(method, b_idx, "non-finite logits after adaptation")
        record.add(
            b_idx, len(y), _batch_error(logits, y), h_before, entropy(logits), _params_hash(params)
        )
    if episodic:
        model.set_adapt_params(params0)
    return record


# ---- baselines ----------------------------------------------------------


def _infer(model: Model, test_batches, method: str, first: int) -> RunRecord:
    """Each batch's logits, from a forward that keeps no layer caches."""
    batches = _check_batches(test_batches, first)
    record = RunRecord(method=method, protocol="none")
    for b_idx, (x, y) in enumerate(batches, first):
        logits = model.forward_until(x, len(model.layers) - 1)
        _check_first_logits(logits, method, b_idx)
        h = entropy(logits)
        record.add(b_idx, len(y), _batch_error(logits, y), h, h)
    return record


def baseline_no_adapt(model: Model, test_batches, first: int = 0) -> RunRecord:
    """Pure inference with frozen statistics; ``first`` numbers the batches
    as in :func:`run_adaptation`."""
    return _infer(model, test_batches, "no-adapt", first)


def baseline_bn_stats(model: Model, test_batches, first: int = 0) -> RunRecord:
    """Recompute batch-norm statistics per test batch; nothing is learned
    or carried to the next batch. ``first`` numbers the batches as in
    :func:`run_adaptation`."""
    work = model.clone()
    work.set_bn_mode(BN_BATCH)
    return _infer(work, test_batches, "bn-stats", first)


def baseline_bn_modulators(
    model: Model, test_batches, cfg: AdaptConfig, first: int = 0
) -> RunRecord:
    """Entropy-train the batch-norm scale/shift with batch statistics;
    ``first`` numbers the batches as in :func:`run_adaptation`."""
    work = model.clone()
    work.set_bn_mode(BN_BATCH)
    work.adapt_target = BatchNorm2d
    return run_adaptation(work, test_batches, cfg, method="bn-modulators", first=first)

